import math
import random
import re
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protkern.errors import EdgeListParseError
from protkern.graph import (
    FamilySpec,
    Graph,
    articulation_points,
    connected_components,
    distances_from,
    generate,
    induced_subgraph,
    parse_edge_list,
    parse_family,
    write_edge_list,
)


def random_graph(draw, max_n=10):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


graphs = st.composite(random_graph)()


def masked_components(g, without):
    """The masked search, the reference for the lowpoint answer."""
    seen = [v in without for v in range(g.n)]
    comps = []
    for s in range(g.n):
        if not seen[s]:
            seen[s] = True
            comp = [s]
            for u in comp:
                for w in g.adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(sorted(comp))
    return comps


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def blocky_graph(rng, n):
    """Isolated vertices and a few components, each a tree of blocks (edges,
    cycles, cliques, random dense pieces) glued at cut vertices, relabelled."""
    edges, top = [], 0
    while top < n:
        size = min(n - top, rng.choice([1, 1, 2, 5, 12, 30, 60]))
        members = [top]
        while len(members) < size:
            first = top + len(members)
            grow = min(size - len(members), rng.randint(1, 5))
            block = [rng.choice(members), *range(first, first + grow)]
            kind = rng.randrange(3)
            if kind == 0:
                edges += [(block[i], block[i + 1]) for i in range(len(block) - 1)]
                if len(block) > 2:
                    edges.append((block[-1], block[0]))
            elif kind == 1:
                edges += [(a, b) for i, a in enumerate(block) for b in block[i + 1 :]]
            else:
                edges += [(block[i], block[i + 1]) for i in range(len(block) - 1)]
                edges += [(a, b) for a in block for b in block if a < b and rng.random() < 0.4]
            members += block[1:]
        top += size
    return relabelled(Graph.from_edges(n, edges), rng)


def reference_articulation_points(g):
    base = len(masked_components(g, ()))
    return [v for v in range(g.n) if len(masked_components(g, {v})) > base - (not g.adj[v])]


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_public_constructor_validates_every_edge(self):
        # only graphs derived from a valid graph skip these checks
        for n, edges in ((2, {(1, 1)}), (2, {(0, 2)}), (3, {(2, 1)}), (-1, set())):
            with pytest.raises(ValueError):
                Graph(n, frozenset(edges))

    def test_adjacency_is_symmetric(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 3)])
        for u, v in g.edges:
            assert v in g.adj[u] and u in g.adj[v]

    def test_adjacency_masks_match_sets(self):
        g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
        for v in range(5):
            assert g.adj_masks[v] == sum(1 << u for u in g.adj[v])


class TestEdgeListFormat:
    def test_roundtrip_small(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert parse_edge_list(write_edge_list(g)) == g

    @settings(max_examples=60, deadline=None)
    @given(graphs)
    def test_roundtrip_property(self, g):
        assert parse_edge_list(write_edge_list(g)) == g

    def test_missing_header(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("")

    def test_bad_edge_line_reports_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("3 2\n0 1\n1 x")

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListParseError, match="2 edges"):
            parse_edge_list("3 2\n0 1")

    def test_out_of_range_endpoint(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("2 1\n0 5")


class TestFamilies:
    def test_parse_roundtrip(self):
        spec = parse_family("grid:3,4")
        assert spec.kind == "grid" and spec.params == (3, 4)
        assert str(spec) == "grid:3,4"

    def test_union_parse(self):
        spec = parse_family("grid:2,2+cycle:5")
        assert spec.kind == "disjoint-union" and len(spec.parts) == 2
        g = generate(spec)
        assert g.n == 9 and g.m == 9

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_family("mobius:5")

    @pytest.mark.parametrize(
        "text,form",
        [
            ("path", "path:N"),
            ("path:3,4", "path:N"),
            ("star-of-paths:2", "star-of-paths:K,LENGTH"),
            ("random-sparse:5,10,2", "random-sparse:N[,PERCENT]"),
            ("grid:2,2+cycle", "cycle:N"),
            ("grid:a,b", "grid:A,B"),
            ("grid:1e3,2", "grid:A,B"),
        ],
    )
    def test_parameter_count(self, text, form):
        with pytest.raises(ValueError, match=re.escape(form)):
            parse_family(text)

    def test_random_sparse_percent_is_optional(self):
        assert generate(parse_family("random-sparse:5")).n == 5
        assert generate(parse_family("random-sparse:5,100")).m == 10

    def test_grid_counts(self):
        g = generate(parse_family("grid:3,4"))
        assert g.n == 12 and g.m == 3 * 3 + 2 * 4

    def test_path_cycle(self):
        assert generate(parse_family("path:6")).m == 5
        assert generate(parse_family("cycle:6")).m == 6

    def test_star_of_paths_shape(self):
        g = generate(parse_family("star-of-paths:3,4"))
        assert g.n == 13 and len(g.adj[0]) == 3
        leaves = [v for v in range(g.n) if len(g.adj[v]) == 1]
        assert len(leaves) == 3

    def test_grid_with_pendant_paths(self):
        g = generate(parse_family("grid-with-pendant-paths:2,2,2,3"))
        assert g.n == 4 + 6

    def test_random_sparse_deterministic(self):
        a = generate(FamilySpec("random-sparse", (10, 30), seed=7))
        b = generate(FamilySpec("random-sparse", (10, 30), seed=7))
        c = generate(FamilySpec("random-sparse", (10, 30), seed=8))
        assert a == b
        assert a != c  # overwhelmingly likely for distinct seeds


class TestOperations:
    def test_distances_path(self):
        g = generate(parse_family("path:5"))
        d = distances_from(g, [0])
        assert [d[v] for v in range(5)] == [0, 1, 2, 3, 4]

    def test_distances_unreachable(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert distances_from(g, [0])[2] == math.inf

    def test_multi_source(self):
        g = generate(parse_family("path:7"))
        d = distances_from(g, [0, 6])
        assert d[3] == 3 and d[1] == 1 and d[5] == 1

    def test_induced_subgraph_relabels_densely(self):
        g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
        sub, remap = induced_subgraph(g, {0, 2, 4})
        assert sub.n == 3 and sub.edges == frozenset({(0, 1), (1, 2)})
        assert remap == {0: 0, 2: 1, 4: 2}

    def test_components(self):
        g = Graph.from_edges(5, [(0, 1), (3, 4)])
        comps = {frozenset(c) for c in connected_components(g)}
        assert comps == {frozenset({0, 1}), frozenset({2}), frozenset({3, 4})}

    def test_components_in_least_vertex_order(self):
        g = Graph.from_edges(6, [(5, 1), (1, 3), (0, 4)])
        assert [sorted(c) for c in connected_components(g)] == [[0, 4], [1, 3, 5], [2]]

    def test_components_without_vertices(self):
        g = generate(parse_family("path:7"))
        assert connected_components(g, ()) == [list(range(7))]
        comps = connected_components(g, {2, 4})
        assert [sorted(c) for c in comps] == [[0, 1], [3], [5, 6]]
        assert connected_components(g, range(7)) == []

    def test_articulation_points_path(self):
        g = generate(parse_family("path:5"))
        assert articulation_points(g) == [1, 2, 3]

    def test_articulation_points_cycle(self):
        assert articulation_points(generate(parse_family("cycle:6"))) == []

    @settings(max_examples=40, deadline=None)
    @given(graphs)
    def test_articulation_points_against_component_counts(self, g):
        base = len(connected_components(g))
        arts = set(articulation_points(g))
        for v in range(g.n):
            rest, _ = induced_subgraph(g, set(range(g.n)) - {v})
            extra_isolated = 1 if len(g.adj[v]) == 0 else 0
            grew = len(connected_components(rest)) > base - extra_isolated
            assert (v in arts) == grew


class TestLowpointComponents:
    """connected_components(g, {v}) and articulation_points read one cached
    lowpoint search; the masked search is their reference."""

    def cases(self):
        rng = random.Random(12)
        yield relabelled(generate(parse_family("path:200")), rng)
        for n in (1, 2, 7, 20, 45, 80, 130):
            for _ in range(4):
                yield blocky_graph(rng, n)
        yield generate(parse_family("grid-with-pendant-paths:3,3,4,5+cycle:6+path:1"))

    def test_single_vertex_matches_masked_search(self):
        for g in self.cases():
            for v in range(g.n):
                got = connected_components(g, {v})
                assert [sorted(c) for c in got] == masked_components(g, {v}), (g, v)

    def test_articulation_points_above_64_vertices(self):
        big = [g for g in self.cases() if g.n > 64]
        assert len(big) >= 9 and any(articulation_points(g) for g in big)
        for g in big:
            assert articulation_points(g) == reference_articulation_points(g)

    def test_one_search_per_graph(self, monkeypatch):
        runs = []
        search = Graph._lowpoint.func

        def counted(g):
            runs.append(g)
            return search(g)

        prop = cached_property(counted)
        prop.__set_name__(Graph, "_lowpoint")
        monkeypatch.setattr(Graph, "_lowpoint", prop)
        graphs = [generate(parse_family("path:30")), generate(parse_family("cycle:9"))]
        for g in graphs:
            for v in range(g.n):
                connected_components(g, {v})
                connected_components(g, (v,))
            articulation_points(g)
            connected_components(g, {0, 1})
        assert runs == graphs
