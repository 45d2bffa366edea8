import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from protkern.boundaried import BoundariedGraph, enumerate_boundaried
from protkern.errors import OracleCapExceeded
from protkern import problems
from protkern.graph import Graph, distances_from, generate, induced_subgraph, parse_family
from protkern.problems import (
    ORACLE_EDGE_CAP,
    ProblemInstance,
    Signature,
    brute_opt,
    compute_signature,
    decide,
    get_problem,
    sct_preprocess,
)

INF = math.inf

K3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
P3 = Graph.from_edges(3, [(0, 1), (1, 2)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def naive_vertex_opt(g, feasible, direction):
    """Reference optimum by plain subset iteration, independent of brute_opt."""
    best = None
    for r in range(g.n + 1):
        for S in itertools.combinations(range(g.n), r):
            if feasible(g, set(S)):
                if best is None or (r < best if direction == "min" else r > best):
                    best = r
    return best


def is_cover(g, S):
    return all(u in S or v in S for u, v in g.edges)


def is_dominating(g, S):
    return all(v in S or g.adj[v] & S for v in range(g.n))


def is_independent(g, S):
    return all(v not in g.adj[u] for u, v in itertools.combinations(S, 2))


def small_graph(draw, max_edges=None):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = (
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=max_edges))
        if pairs
        else []
    )
    return Graph.from_edges(n, edges)


small_graphs = st.composite(small_graph)()
# K7 has 21 edges, one over the edge-problem oracle's cap
edge_oracle_graphs = st.composite(small_graph)(max_edges=ORACLE_EDGE_CAP)
K7_MINUS_EDGE = Graph.from_edges(
    7, [(i, j) for i in range(7) for j in range(i + 1, 7) if (i, j) != (0, 1)]
)


class TestGetProblem:
    @pytest.mark.parametrize(
        "pid,kw",
        [
            ("ds", {"r": -1}),
            ("ds", {"r": 0}),
            ("scattered", {}),
            ("scattered", {"r": 0}),
            ("sct", {}),
            ("sct", {"s": 2}),
            ("vc", {"r": 1}),
            ("is", {"r": 2}),
            ("cyclepacking", {"r": 1}),
            ("sct", {"s": 3, "r": 1}),
            ("vc", {"s": 3}),
            ("ds", {"s": 3}),
            ("scattered", {"r": 2, "s": 3}),
            ("fvs", {}),
            ("ds", {"r": 2}),
        ],
    )
    def test_rejects_bad_parameters(self, pid, kw):
        with pytest.raises(ValueError):
            get_problem(pid, **kw)

    def test_ds_radius(self):
        assert get_problem("ds").params == ()
        assert get_problem("ds", r=1) == get_problem("ds")  # radius 1 is plain ds


class TestBruteOpt:
    def test_vc_triangle(self):
        assert brute_opt(get_problem("vc"), K3) == 2

    def test_ds_star(self):
        star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
        assert brute_opt(get_problem("ds"), star) == 1

    def test_cycle_packing_two_triangles(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert brute_opt(get_problem("cyclepacking"), g) == 2

    def test_cycle_packing_shared_vertex(self):
        # two triangles sharing a vertex admit only one vertex-disjoint cycle
        g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        assert brute_opt(get_problem("cyclepacking"), g) == 1

    def test_sct_known_values(self):
        assert brute_opt(get_problem("sct", s=3), K3) == 1
        assert brute_opt(get_problem("sct", s=3), K4) == 2
        c4 = generate(parse_family("cycle:4"))
        assert brute_opt(get_problem("sct", s=3), c4) == 0
        assert brute_opt(get_problem("sct", s=4), c4) == 1

    def test_scattered_path(self):
        p7 = generate(parse_family("path:7"))
        assert brute_opt(get_problem("scattered", r=2), p7) == 3

    def test_vertex_cap(self):
        g = Graph.from_edges(17, [])
        with pytest.raises(OracleCapExceeded):
            brute_opt(get_problem("vc"), g)

    def test_edge_cap(self):
        g = Graph.from_edges(7, [(i, j) for i in range(7) for j in range(i + 1, 7)])
        with pytest.raises(OracleCapExceeded):
            brute_opt(get_problem("cyclepacking"), g)

    @settings(max_examples=40, deadline=None)
    @given(small_graphs)
    def test_vc_matches_naive(self, g):
        assert brute_opt(get_problem("vc"), g) == naive_vertex_opt(g, is_cover, "min")

    @settings(max_examples=40, deadline=None)
    @given(small_graphs)
    def test_ds_matches_naive(self, g):
        assert brute_opt(get_problem("ds"), g) == naive_vertex_opt(
            g, is_dominating, "min"
        )

    @settings(max_examples=40, deadline=None)
    @given(small_graphs)
    def test_is_matches_naive(self, g):
        assert brute_opt(get_problem("is"), g) == naive_vertex_opt(
            g, is_independent, "max"
        )

    @settings(max_examples=30, deadline=None)
    @given(small_graphs)
    def test_scattered_r1_equals_is(self, g):
        assert brute_opt(get_problem("scattered", r=1), g) == brute_opt(
            get_problem("is"), g
        )


def nx_min_short_cycle_transversal(n, edges, s):
    """Fewest edges whose removal leaves nx.simple_cycles nothing of length <= s,
    trying edge subsets in order of size."""
    for size in range(len(edges) + 1):
        for cut in itertools.combinations(edges, size):
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from(set(edges) - set(cut))
            if next(nx.simple_cycles(h, length_bound=s), None) is None:
                return size


def nx_max_cycle_packing(n, edges):
    """Largest vertex-disjoint family of nx.simple_cycles."""
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)

    def most(cycles, used):
        return max(
            (1 + most(cycles[i + 1 :], used | c) for i, c in enumerate(cycles) if not used & c),
            default=0,
        )

    return most([frozenset(c) for c in nx.simple_cycles(g)], frozenset())


class TestCycleOraclesMatchNetworkx:
    def test_random_graphs(self, monkeypatch):
        rng = random.Random(2009)
        cases = []
        for _ in range(200):
            n = rng.randint(0, 8)
            pairs = list(itertools.combinations(range(n), 2))
            edges = rng.sample(pairs, rng.randint(0, min(12, len(pairs))))
            want = [nx_max_cycle_packing(n, edges)]
            want += [nx_min_short_cycle_transversal(n, edges, s) for s in (3, 4, 5)]
            cases.append((Graph.from_edges(n, edges), want))
        specs = [get_problem("cyclepacking")] + [get_problem("sct", s=s) for s in (3, 4, 5)]
        # the oracles search adjacency masks and build no Graph
        built = []
        validate = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda g: (built.append(g), validate(g))[1])
        for g, want in cases:
            assert [brute_opt(spec, g) for spec in specs] == want, g
        assert built == []
        assert {want[0] for _, want in cases} >= {0, 1, 2}
        assert max(want[2] for _, want in cases) >= 3


class TestDecide:
    def test_min_negative_k_is_no(self):
        assert decide(ProblemInstance(K3, -1, get_problem("vc"))) is False

    def test_max_negative_k_is_yes(self):
        g = Graph.from_edges(2, [])
        assert decide(ProblemInstance(g, -3, get_problem("cyclepacking"))) is True

    def test_thresholds(self):
        assert decide(ProblemInstance(K3, 2, get_problem("vc"))) is True
        assert decide(ProblemInstance(K3, 1, get_problem("vc"))) is False
        assert decide(ProblemInstance(K3, 1, get_problem("is"))) is True
        assert decide(ProblemInstance(K3, 2, get_problem("is"))) is False


class TestVertexCoverSignature:
    def test_single_vertex(self):
        b = BoundariedGraph(Graph.from_edges(1, []), (0,), (1,))
        s = compute_signature(get_problem("vc"), b)
        assert s.offset == 0 and s.table == {(): 0, (1,): 1}

    def test_p3_one_endpoint(self):
        s = compute_signature(get_problem("vc"), BoundariedGraph(P3, (0,), (1,)))
        assert s.offset == 1 and s.table == {(): 0, (1,): 1}

    def test_triangle_one_vertex(self):
        s = compute_signature(get_problem("vc"), BoundariedGraph(K3, (0,), (1,)))
        assert s.offset == 2 and s.table == {(): 0, (1,): 0}

    def test_infeasible_state(self):
        # an edge between two excluded boundary vertices cannot be covered
        b = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0, 1), (1, 2))
        s = compute_signature(get_problem("vc"), b)
        assert s.table[()] == INF


class TestDominatingSetSignature:
    def test_single_vertex_states(self):
        b = BoundariedGraph(Graph.from_edges(1, []), (0,), (1,))
        s = compute_signature(get_problem("ds"), b)
        assert s.offset == 0
        assert s.table[("I",)] == 1
        assert s.table[("D",)] == INF
        assert s.table[("F",)] == 0

    def test_edge_all_states_level(self):
        b = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0,), (1,))
        s = compute_signature(get_problem("ds"), b)
        assert s.offset == 1
        assert all(v == 0 for v in s.table.values())

    def test_p3_endpoint(self):
        s = compute_signature(get_problem("ds"), BoundariedGraph(P3, (0,), (1,)))
        # frozen from the subset-enumeration oracle
        assert s.offset == 1
        assert s.table == {("I",): 1, ("D",): 0, ("F",): 0}

    def test_every_state_matches_naive_enumeration(self):
        # compute_signature's offset check reads _min_dominating, which also
        # fills the table, so each state is checked against sets built here
        rng = random.Random(16)
        for _ in range(150):
            b = random_boundaried(rng, 7, 3)
            s = compute_signature(get_problem("ds"), b)
            assert (s.offset, s.table) == naive_ds_signature(b), b


def naive_ds_signature(b):
    """ds's offset and table by subset enumeration on is_dominating.

    A boundary vertex in state I is in the set, D out of it and dominated, F
    out of it and free; a helper vertex joined to every F vertex and added to
    each set dominates those.
    """
    g, n = b.graph, b.graph.n
    bverts = [v for _, v in sorted(zip(b.labels, b.boundary))]
    raw = {}
    for states in itertools.product("IDF", repeat=len(bverts)):
        h = Graph.from_edges(n + 1, list(g.edges) + [(v, n) for s, v in zip(states, bverts) if s == "F"])
        forced = {v for s, v in zip(states, bverts) if s == "I"}
        free = [v for v in range(n) if v not in bverts]
        raw[states] = next(
            (len(forced) + r for r in range(len(free) + 1) for S in itertools.combinations(free, r)
             if is_dominating(h, forced | set(S) | {n})),
            INF,
        )
    offset = min(raw.values())
    return offset, {k: INF if z - offset > 2 * len(bverts) else z - offset for k, z in raw.items()}


class TestCyclePackingSignature:
    def test_triangle_no_boundary(self):
        s = compute_signature(get_problem("cyclepacking"), BoundariedGraph(K3, (), ()))
        assert s.offset == 1 and s.table == {((), ()): 0}

    def test_p3_two_endpoints(self):
        s = compute_signature(get_problem("cyclepacking"), BoundariedGraph(P3, (0, 2), (1, 2)))
        assert s.offset == 0
        assert s.table[((), ())] == 0
        assert s.table[((), ((1, 2),))] == 0

    def test_disconnected_pair_is_unroutable(self):
        b = BoundariedGraph(Graph.from_edges(2, []), (0, 1), (1, 2))
        s = compute_signature(get_problem("cyclepacking"), b)
        assert s.table[((), ((1, 2),))] == -INF

    def test_reserved_label_distinguishes_boundary_use(self):
        # triangle through the boundary vertex vs triangle avoiding it:
        # equal packing numbers, different behavior once the context
        # claims the boundary vertex for its own cycle
        through = BoundariedGraph(K3, (0,), (1,))
        avoid = BoundariedGraph(
            Graph.from_edges(4, [(1, 2), (2, 3), (1, 3)]), (0,), (1,)
        )
        spec = get_problem("cyclepacking")
        st, sa = compute_signature(spec, through), compute_signature(spec, avoid)
        assert st.offset == sa.offset == 1
        assert st.table[((1,), ())] == -1
        assert sa.table[((1,), ())] == 0
        assert not st.same_class(sa)


class TestScatteredSignature:
    def test_single_vertex_r2(self):
        b = BoundariedGraph(Graph.from_edges(1, []), (0,), (1,))
        s = compute_signature(get_problem("scattered", r=2), b)
        assert s.offset == 1
        assert s.table[(0,)] == 0
        assert s.table[(1,)] == -1 and s.table[(2,)] == -1 and s.table[(3,)] == -1

    def test_p3_diameter_two(self):
        s = compute_signature(get_problem("scattered", r=2), BoundariedGraph(P3, (), ()))
        assert s.offset == 1

    def test_c5_r1_offset(self):
        c5 = generate(parse_family("cycle:5"))
        s = compute_signature(get_problem("scattered", r=1), BoundariedGraph(c5, (), ()))
        assert s.offset == 2

    def test_ell_matrix_capped(self):
        p5 = generate(parse_family("path:5"))
        b = BoundariedGraph(p5, (0, 4), (1, 2))
        s = compute_signature(get_problem("scattered", r=2), b)
        assert s.ell == {(1, 2): 2}  # true distance 4, capped at r


def reference_max_independent(conflict, allowed):
    memo = {}

    def go(mask):
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        best = go(mask & ~(1 << v))
        best = max(best, 1 + go(mask & ~(1 << v) & ~conflict[v]))
        memo[mask] = best
        return best

    return go(allowed)


def reference_scattered_signature(b, r, t=None):
    """Table from BFS distance dicts, one fresh MIS memo per demand vector."""
    g = b.graph
    labels = sorted(b.labels)
    if t is None:
        t = len(labels)
    bverts = [v for _, v in sorted(zip(b.labels, b.boundary))]
    dist = [distances_from(g, [v]) for v in bverts]
    ell = {}
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            d = dist[i][bverts[j]]
            ell[(labels[i], labels[j])] = int(min(d, r))
    pairwise = [distances_from(g, [v]) for v in range(g.n)]
    conflict = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if u != v and pairwise[u][v] <= r:
                conflict[u] |= 1 << v
    raw = {}
    for sigma in itertools.product(range(r + 2), repeat=len(labels)):
        allowed = 0
        for v in range(g.n):
            if all(dist[i][v] >= sigma[i] for i in range(len(labels))):
                allowed |= 1 << v
        raw[sigma] = reference_max_independent(conflict, allowed)
    offset = raw[tuple([0] * len(labels))]
    table = {}
    for sigma, z in raw.items():
        if z - offset < -2 * t:
            table[sigma] = -INF
        else:
            table[sigma] = int(z - offset)
    return Signature(b.label_set, offset, table, ell=ell)


def random_boundaried(rng, max_vertices, max_labels, max_density=1.0):
    n = rng.randint(1, max_vertices)
    density = rng.random() * max_density
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density
    ]
    count = rng.randint(0, min(max_labels, n))
    boundary = tuple(rng.sample(range(n), count))
    labels = tuple(rng.sample(range(1, max_labels + 3), count))
    return BoundariedGraph(Graph.from_edges(n, edges), boundary, labels)


# the reference sct table builds a Graph per edge subset and scans every
# pending demand: one dense 7-vertex window took 288 s on a 2-CPU x86 VM
SCT_RANDOM_WINDOWS = 60
SCT_MAX_DENSITY = 0.6


@pytest.fixture(scope="module")
def signature_windows():
    """Every class of enumerate_boundaried(5, L), L <= 3, and random windows."""
    out = [b for L in range(4) for b in enumerate_boundaried(5, L)]
    rng = random.Random(2009)
    out.extend(random_boundaried(rng, 12, 4) for _ in range(300))
    return out


class TestScatteredMatchesReference:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tables_and_offsets(self, signature_windows, r):
        for b in signature_windows:
            got = compute_signature(get_problem("scattered", r=r), b)
            want = reference_scattered_signature(b, r)
            assert (got.class_key(), got.offset) == (want.class_key(), want.offset), b


def reference_matchings(labels: list[int]):
    """All partial matchings on `labels` as frozensets of sorted label pairs."""
    out = []

    def go(rest: tuple[int, ...], acc: frozenset):
        if len(rest) < 2:
            out.append(acc)
            return
        x = rest[0]
        tail = rest[1:]
        go(tail, acc)  # x stays unmatched
        for i, y in enumerate(tail):
            go(tail[:i] + tail[i + 1 :], acc | {(x, y)})

    go(tuple(labels), frozenset())
    return out


def reference_cycle_packing_table(b: BoundariedGraph) -> dict:
    """Table over (reserved labels, boundary matching) states: best cycle count
    of a max-degree-2 subgraph that avoids every reserved boundary vertex and
    links each matched pair by a path.

    The reserved set records boundary vertices claimed by cycles that live
    entirely on the other side of the boundary; without it, two graphs whose
    internal packings differ in whether they occupy a boundary vertex would be
    conflated (a triangle through the boundary vertex is not interchangeable
    with one avoiding it).
    """
    g = b.graph
    labels = sorted(b.labels)
    vert = {l: b.vertex_of_label(l) for l in labels}
    edges = sorted(g.edges)
    states = []
    for bits in range(1 << len(labels)):
        reserved = tuple(l for i, l in enumerate(labels) if bits >> i & 1)
        for R in reference_matchings([l for l in labels if l not in reserved]):
            states.append((reserved, tuple(sorted(R))))
    best: dict[tuple, float] = {st: -INF for st in states}

    deg = [0] * g.n
    chosen: list[tuple[int, int]] = []

    def evaluate():
        # union-find over the chosen subgraph
        par = list(range(g.n))

        def find(x):
            while par[x] != x:
                par[x] = par[par[x]]
                x = par[x]
            return x

        used = set()
        for u, v in chosen:
            used.add(u)
            used.add(v)
            par[find(u)] = find(v)
        comp_edges: dict[int, int] = {}
        comp_size: dict[int, int] = {}
        for u, v in chosen:
            comp_edges[find(u)] = comp_edges.get(find(u), 0) + 1
        for u in used:
            comp_size[find(u)] = comp_size.get(find(u), 0) + 1
        cycles = sum(
            1 for c, e in comp_edges.items() if e == comp_size.get(c, 0)
        )
        for st in states:
            reserved, R = st
            if any(vert[a] in used for a in reserved):
                continue
            # each matched pair must be the two endpoints of its own path
            # component; the closing edges live on the far side of the
            # boundary, so the terminals keep one free edge slot each
            ok = all(
                find(vert[x]) == find(vert[y])
                and deg[vert[x]] == 1
                and deg[vert[y]] == 1
                for x, y in R
            )
            if ok and cycles > best[st]:
                best[st] = cycles

    def branch(i: int):
        if i == len(edges):
            evaluate()
            return
        branch(i + 1)
        u, v = edges[i]
        if deg[u] < 2 and deg[v] < 2:
            deg[u] += 1
            deg[v] += 1
            chosen.append((u, v))
            branch(i + 1)
            chosen.pop()
            deg[u] -= 1
            deg[v] -= 1

    branch(0)
    return best


def reference_cycle_packing_signature(b):
    """Edge-subset table normalized by its best finite value, capped at |labels|."""
    raw = reference_cycle_packing_table(b)
    offset = max(z for z in raw.values() if z != -INF)
    cap = len(b.labels)
    table = {k: -INF if abs(z - offset) > cap else int(z - offset) for k, z in raw.items()}
    return raw, Signature(b.label_set, offset, table)


class TestCyclePackingMatchesReference:
    def check(self, windows):
        spec = get_problem("cyclepacking")
        checked = 0
        for b in windows:
            try:
                got = compute_signature(spec, b)
            except OracleCapExceeded:
                continue
            want_raw, want = reference_cycle_packing_signature(b)
            assert problems._cycle_packing_table(b) == want_raw, b
            assert (got.class_key(), got.offset) == (want.class_key(), want.offset), b
            checked += 1
        return checked

    def test_signature_windows(self, signature_windows):
        assert self.check(signature_windows) > len(signature_windows) // 2

    def test_five_labels(self):
        rng = random.Random(5)
        windows = [random_boundaried(rng, 10, 5, 0.5) for _ in range(100)]
        assert self.check(windows) == len(windows)
        assert max(len(b.labels) for b in windows) == 5


class TestShortCycleSignature:
    def test_triangle(self):
        s = compute_signature(get_problem("sct", s=3), BoundariedGraph(K3, (), ()))
        assert s.offset == 1 and s.table == {(): 0}

    def test_k4_s3(self):
        s = compute_signature(get_problem("sct", s=3), BoundariedGraph(K4, (), ()))
        assert s.offset == 2

    def test_edgeless_all_finite(self):
        b = BoundariedGraph(Graph.from_edges(3, []), (0, 1), (1, 2))
        s = compute_signature(get_problem("sct", s=3), b)
        assert s.offset == 0
        assert all(v == 0 for v in s.table.values())


def reference_on_short_cycle(g, u, v, s):
    """Whether the edge uv lies on a cycle of length <= s: a BFS distance
    dict in a validated copy of g without uv."""
    cut = Graph(g.n, g.edges - {(min(u, v), max(u, v))})
    return distances_from(cut, [u])[v] + 1 <= s


def reference_sct_signature(b, s, t=None):
    """Table from a validated Graph per edge subset and BFS distance dicts,
    scanning every pending demand vector."""
    g = b.graph
    labels = sorted(b.labels)
    if t is None:
        t = len(labels)
    bverts = {l: b.vertex_of_label(l) for l in labels}
    pairs = [
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    ]
    states = list(itertools.product(range(s + 1), repeat=len(pairs)))
    pending = set(states)
    raw = {}
    edges = sorted(g.edges)
    for size in range(len(edges) + 1):
        if not pending:
            break
        for cut in itertools.combinations(edges, size):
            rest = Graph(g.n, g.edges - set(cut))
            if any(reference_on_short_cycle(rest, u, v, s) for u, v in rest.edges):
                continue
            dists = [
                distances_from(rest, [bverts[i]])[bverts[j]] for i, j in pairs
            ]
            done = []
            for f in pending:
                if all(d >= f[idx] + 1 for idx, d in enumerate(dists)):
                    raw[f] = size
                    done.append(f)
            pending.difference_update(done)
            if not pending:
                break
    for f in pending:
        raw[f] = INF
    offset = raw[tuple([0] * len(pairs))]
    if offset == INF:
        offset = None
    cap = 3 * (t * (t - 1) // 2)
    table = {}
    for f, z in raw.items():
        if offset is None or z == INF or z - offset > cap:
            table[f] = INF
        else:
            table[f] = int(z - offset)
    return Signature(b.label_set, offset, table)


def reference_sct_preprocess(g, s):
    """Fixed point by rounds of validated Graph builds and BFS distance dicts."""
    alive = list(range(g.n))
    cur = g
    removed = []
    while True:
        drop = []
        for v in range(cur.n):
            if not any(reference_on_short_cycle(cur, v, u, s) for u in cur.adj[v]):
                drop.append(v)
        if not drop:
            return cur, sorted(removed)
        removed.extend(alive[v] for v in drop)
        keep = [v for v in range(cur.n) if v not in set(drop)]
        cur, _ = induced_subgraph(cur, keep)
        alive = [alive[v] for v in keep]


class TestShortCycleMatchesReference:
    @pytest.mark.parametrize("s", [3, 4])
    def test_tables_and_offsets(self, s):
        rng = random.Random(s)
        windows = [b for L in range(4) for b in enumerate_boundaried(4, L)]
        windows.extend(
            random_boundaried(rng, 7, 4, SCT_MAX_DENSITY) for _ in range(SCT_RANDOM_WINDOWS)
        )
        spec = get_problem("sct", s=s)
        for b in windows:
            for t in (None, 2):
                got = compute_signature(spec, b, t)
                want = reference_sct_signature(b, s, t)
                assert (got.class_key(), got.offset) == (want.class_key(), want.offset), b

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_preprocess(self, s):
        rng = random.Random(s)
        for _ in range(100):
            n = rng.randint(1, 14)
            density = rng.random() * 0.5
            g = Graph.from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            )
            out, removed = sct_preprocess(g, s)
            want, want_removed = reference_sct_preprocess(g, s)
            assert (out, removed) == (want, want_removed), g


class TestSignatureInfra:
    def test_class_key_deterministic(self):
        b = BoundariedGraph(P3, (0,), (1,))
        vc = get_problem("vc")
        assert compute_signature(vc, b).class_key() == compute_signature(vc, b).class_key()

    def test_same_class_ignores_offset(self):
        vc = get_problem("vc")
        a = compute_signature(vc, BoundariedGraph(P3, (0,), (1,)))
        b = compute_signature(vc, BoundariedGraph(Graph.from_edges(1, []), (0,), (1,)))
        assert a.offset != b.offset
        assert a.same_class(b)

    @pytest.mark.parametrize(
        "pid,kw",
        [("vc", {}), ("is", {}), ("scattered", {"r": 2}), ("cyclepacking", {}), ("sct", {"s": 3})],
    )
    def test_offset_check_fires(self, monkeypatch, pid, kw):
        real = problems.brute_opt
        monkeypatch.setattr(problems, "brute_opt", lambda spec, g: real(spec, g) + 1)
        b = BoundariedGraph(generate(parse_family("cycle:5")), (0,), (1,))
        with pytest.raises(AssertionError, match="offset"):
            compute_signature(get_problem(pid, **kw), b)

    def test_table_without_finite_entry_raises(self, monkeypatch):
        b = BoundariedGraph(generate(parse_family("cycle:5")), (0,), (1,))
        real_vc, real_is = problems._vc_table, problems._scattered_table
        monkeypatch.setattr(problems, "_vc_table", lambda b: dict.fromkeys(real_vc(b), INF))

        def no_finite_is(b, r):
            raw, ell = real_is(b, r)
            return dict.fromkeys(raw, -INF), ell

        monkeypatch.setattr(problems, "_scattered_table", no_finite_is)
        for pid in ("vc", "is"):
            with pytest.raises(AssertionError, match="no finite entry"):
                compute_signature(get_problem(pid), b)

    def test_ds_offset_check_fires(self, monkeypatch):
        # the reference call is the only one that may pick from every vertex
        real = problems._min_dominating

        def off_by_one(g, required, candidates, forced):
            return real(g, required, candidates, forced) + (candidates == (1 << g.n) - 1)

        monkeypatch.setattr(problems, "_min_dominating", off_by_one)
        b = BoundariedGraph(generate(parse_family("cycle:5")), (0,), (1,))
        with pytest.raises(AssertionError, match="offset"):
            compute_signature(get_problem("ds"), b)

    @pytest.mark.parametrize(
        "pid,kw", [("vc", {}), ("ds", {}), ("is", {}), ("scattered", {"r": 2})]
    )
    def test_dispatch_offset_is_relaxed_optimum(self, pid, kw):
        spec = get_problem(pid, **kw)
        b = BoundariedGraph(generate(parse_family("path:4")), (0,), (1,))
        sig = compute_signature(spec, b)
        if pid in ("vc", "is", "scattered"):
            assert sig.offset == brute_opt(spec, b.graph)


class TestSctPreprocess:
    def test_triangle_with_pendant_path(self):
        g = Graph.from_edges(
            8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        )
        out, removed = sct_preprocess(g, 3)
        assert out.n == 3 and out.m == 3
        assert removed == [3, 4, 5, 6, 7]

    def test_tree_vanishes(self):
        tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
        out, removed = sct_preprocess(tree, 3)
        assert out.n == 0 and len(removed) == 5

    def test_c4_depends_on_s(self):
        c4 = generate(parse_family("cycle:4"))
        assert sct_preprocess(c4, 3)[0].n == 0
        assert sct_preprocess(c4, 4)[0].n == 4

    def test_fixed_point_cascades(self):
        # the pendant path goes in one pass: a vertex on no short cycle is on
        # none of the cycles that the kept vertices rely on
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
        out, removed = sct_preprocess(g, 3)
        assert out.n == 3 and removed == [3, 4]

    @settings(max_examples=30, deadline=None)
    @given(edge_oracle_graphs)
    @example(K7_MINUS_EDGE)
    def test_preserves_optimum(self, g):
        spec = get_problem("sct", s=3)
        out, _ = sct_preprocess(g, 3)
        assert brute_opt(spec, g) == brute_opt(spec, out)
