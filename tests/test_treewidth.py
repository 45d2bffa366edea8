import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protkern.errors import TooLargeForExactTreewidth
from protkern.graph import Graph, generate, parse_family
from protkern.protrusion import compute_xr
from protkern.treewidth import TreeDecomposition, decide_tw_leq, make_nice, validate, validate_masks
from reference import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    children,
    nice_kinds,
    root,
    validate_nice,
    width,
    xr_protrusion,
)


def brute_treewidth(g: Graph) -> int:
    """Minimum over all elimination orders of the maximum fill degree."""
    if g.n == 0:
        return -1
    best = g.n - 1
    for order in itertools.permutations(range(g.n)):
        adj = {v: set(g.adj[v]) for v in range(g.n)}
        worst = 0
        for v in order:
            nbrs = adj.pop(v)
            worst = max(worst, len(nbrs))
            if worst >= best:
                break
            for u in nbrs:
                adj[u].discard(v)
                adj[u] |= nbrs - {u}
                adj[u].discard(u)
        else:
            best = min(best, worst)
    return best


def _ref_degeneracy(adj: dict[int, set[int]]) -> int:
    adj = {v: set(ns) for v, ns in adj.items()}
    best = 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        best = max(best, len(adj[v]))
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    return best


def _ref_eliminate(adj: dict[int, set[int]], v: int) -> dict[int, set[int]]:
    nbrs = adj[v]
    out = {u: set(ns) for u, ns in adj.items() if u != v}
    for u in nbrs:
        out[u].discard(v)
        out[u] |= nbrs - {u}
        out[u].discard(u)
    return out


def reference_decide(g: Graph, t: int):
    """Dict-based branch and bound over elimination orders, with its certificate.

    The engine's decide_tw_leq must match it exactly for t <= 2 and in its
    decision for every t.
    """
    if g.n == 0:
        return TreeDecomposition(g, (None,), (frozenset(),))
    adj0 = {v: set(g.adj[v]) for v in range(g.n)}
    if _ref_degeneracy(adj0) > t:
        return None
    failed: set[frozenset[int]] = set()

    def search(adj: dict[int, set[int]], order: list[int]) -> bool:
        if len(adj) <= t + 1:
            return True
        key = frozenset(adj)
        if key in failed:
            return False
        cands = [v for v in adj if len(adj[v]) <= t]
        for v in cands:
            ns = adj[v]
            if all(w in adj[u] for u in ns for w in ns if u < w):
                order.append(v)
                if search(_ref_eliminate(adj, v), order):
                    return True
                order.pop()
                failed.add(key)
                return False
        cands.sort(key=lambda v: (len(adj[v]), v))
        for v in cands:
            order.append(v)
            if search(_ref_eliminate(adj, v), order):
                return True
            order.pop()
        failed.add(key)
        return False

    order: list[int] = []
    if not search(adj0, order):
        return None
    # bags from the elimination fill graph; the residual vertices form the root
    adj = adj0
    bags = []
    elim_bags: dict[int, int] = {}
    elim_index: dict[int, int] = {}
    for i, v in enumerate(order):
        bags.append(frozenset(adj[v] | {v}))
        elim_bags[v] = len(bags) - 1
        elim_index[v] = i
        adj = _ref_eliminate(adj, v)
    bags.append(frozenset(adj))
    root = len(bags) - 1
    parent: list = [None] * len(bags)
    for v in order:
        node = elim_bags[v]
        later = [w for w in bags[node] if w != v and w in elim_index]
        if later:
            parent[node] = elim_bags[min(later, key=lambda u: elim_index[u])]
        else:
            parent[node] = root
    return TreeDecomposition(g, tuple(parent), tuple(bags))


def assert_matches_reference(g: Graph, t: int):
    td, ref = decide_tw_leq(g, t), reference_decide(g, t)
    assert (td is None) == (ref is None)
    if t <= 2 and td is not None:
        assert (td.parent, td.bags) == (ref.parent, ref.bags)


def reference_validate(td: TreeDecomposition) -> list[str]:
    """Walk-to-root validation: a parent walk from every node and a bag scan
    per edge.  Raises KeyError on a bag vertex outside the graph."""
    g = td.graph
    out = []
    n_nodes = len(td.bags)
    if len(td.parent) != n_nodes:
        return ["parent/bag arrays differ in length"]
    roots = [i for i, p in enumerate(td.parent) if p is None]
    if len(roots) != 1:
        out.append(f"expected exactly one root, found {len(roots)}")
    for i, p in enumerate(td.parent):
        if p is not None and not (0 <= p < n_nodes):
            out.append(f"node {i} has out-of-range parent {p}")
    for i in range(n_nodes):
        seen = set()
        j = i
        while j is not None:
            if j in seen:
                out.append(f"cycle in parent links through node {i}")
                return out
            seen.add(j)
            j = td.parent[j]
    for b in td.bags:
        for v in b:
            if not (0 <= v < g.n):
                out.append(f"bag vertex {v} outside the host graph")
    occ: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, b in enumerate(td.bags):
        for v in b:
            occ[v].append(i)
    ch = children(td)
    for v in range(g.n):
        nodes = occ[v]
        if not nodes:
            out.append(f"vertex {v} appears in no bag")
            continue
        nodeset = set(nodes)
        comp = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            u = stack.pop()
            nbrs = list(ch[u])
            if td.parent[u] is not None:
                nbrs.append(td.parent[u])
            for w in nbrs:
                if w in nodeset and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if comp != nodeset:
            out.append(f"occurrences of vertex {v} are disconnected")
    for u, v in sorted(g.edges):
        if not any(u in b and v in b for b in td.bags):
            out.append(f"edge ({u},{v}) not contained in any bag")
    return out


class ReferenceNiceBuilder:
    """The nice-form builder on frozenset bags, kept apart from the package's."""

    def __init__(self):
        self.bags: list[frozenset[int]] = []
        self.kinds: list[str] = []
        self.parent: list = []

    def add(self, bag: frozenset[int], kind: str, children: list[int]) -> int:
        node = len(self.bags)
        self.bags.append(bag)
        self.kinds.append(kind)
        self.parent.append(None)
        for c in children:
            self.parent[c] = node
        return node

    def leaf_chain(self, bag: frozenset[int]) -> int:
        """Leaf plus introduce chain building up to `bag`."""
        order = sorted(bag)
        if not order:
            return self.add(frozenset(), LEAF, [])
        node = self.add(frozenset(order[:1]), LEAF, [])
        for i in range(1, len(order)):
            node = self.add(frozenset(order[: i + 1]), INTRODUCE, [node])
        return node

    def transition(self, node: int, target: frozenset[int]) -> int:
        """Forget/introduce chain from the bag at `node` up to `target`."""
        cur = self.bags[node]
        for v in sorted(cur - target):
            cur = cur - {v}
            node = self.add(cur, FORGET, [node])
        for v in sorted(target - cur):
            cur = cur | {v}
            node = self.add(cur, INTRODUCE, [node])
        return node


def reference_make_nice(td: TreeDecomposition, root: int) -> tuple[TreeDecomposition, list[str]]:
    """Nice form after re-orienting the parent links toward `root`, and the
    kind each node was built as."""
    ch: list[list[int]] = [[] for _ in td.bags]
    undirected: list[set[int]] = [set() for _ in td.bags]
    for i, p in enumerate(td.parent):
        if p is not None:
            undirected[i].add(p)
            undirected[p].add(i)
    seen = {root}
    stack = [root]
    while stack:
        u = stack.pop()
        for w in undirected[u]:
            if w not in seen:
                seen.add(w)
                ch[u].append(w)
                stack.append(w)
    b = ReferenceNiceBuilder()

    def build(node: int) -> int:
        bag = td.bags[node]
        if not ch[node]:
            return b.leaf_chain(bag)
        tops = [b.transition(build(k), bag) for k in sorted(ch[node])]
        top = tops[0]
        for other in tops[1:]:
            top = b.add(bag, JOIN, [top, other])
        return top

    build(root)
    return TreeDecomposition(td.graph, tuple(b.parent), tuple(b.bags)), b.kinds


def mutate(td: TreeDecomposition, kind: str, a: int, b: int) -> TreeDecomposition:
    """td with one bag vertex dropped or added (possibly outside the graph),
    one parent re-pointed (possibly to itself), or one node made a root."""
    parent, bags = list(td.parent), list(td.bags)
    i = a % len(bags)
    if kind == "drop" and bags[i]:
        bags[i] = bags[i] - {sorted(bags[i])[b % len(bags[i])]}
    elif kind == "add":
        bags[i] = bags[i] | {b % (td.graph.n + 2)}
    elif kind == "repoint":
        parent[i] = b % len(bags)
    elif kind == "root":
        parent[i] = None
    return dataclasses.replace(td, parent=tuple(parent), bags=tuple(bags))


def mask_messages(td: TreeDecomposition) -> list[str]:
    """validate(td), which must equal the messages of validate_masks on td's masks."""
    core, _ = validate_masks(td.graph.adj_masks, td.parent, [sum(1 << v for v in b) for b in td.bags])
    msgs = validate(td)
    assert msgs == core
    return msgs


def assert_validate_matches_reference(td: TreeDecomposition):
    try:
        want = reference_validate(td)
    except KeyError:  # a bag vertex outside the graph
        assert mask_messages(td) != []
        return
    assert (mask_messages(td) == []) == (want == [])


def shuffled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return Graph.from_edges(n, [(v, rng.randrange(v)) for v in range(1, n)])


def small_graph(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


small_graphs = st.composite(small_graph)()
graphs_to_10 = st.composite(small_graph)(max_n=10)


class TestDecideTreewidth:
    @pytest.mark.parametrize(
        "family,tw",
        [
            ("path:7", 1),
            ("cycle:7", 2),
            ("grid:3,3", 3),
            ("star-of-paths:4,2", 1),
        ],
    )
    def test_known_families(self, family, tw):
        g = generate(parse_family(family))
        assert decide_tw_leq(g, tw - 1) is None
        td = decide_tw_leq(g, tw)
        assert td is not None and width(td) <= tw
        assert validate(td) == []

    def test_complete_graph(self):
        k5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert decide_tw_leq(k5, 3) is None
        assert decide_tw_leq(k5, 4) is not None

    def test_empty_graph(self):
        td = decide_tw_leq(Graph.from_edges(0, []), 0)
        assert validate(td) == []

    def test_vertex_cap(self):
        g = generate(parse_family("path:40"))
        with pytest.raises(TooLargeForExactTreewidth):
            decide_tw_leq(g, 1, vertex_cap=32)
        assert decide_tw_leq(g, 1, vertex_cap=64) is not None

    @settings(max_examples=50, deadline=None)
    @given(small_graphs)
    def test_matches_brute_force(self, g):
        tw = brute_treewidth(g)
        for t in range(max(4, tw + 1)):
            td = decide_tw_leq(g, t)
            assert (td is not None) == (tw <= t)
            if td is not None:
                assert validate(td) == []
                assert width(td) <= t

    @settings(max_examples=100, deadline=None)
    @given(graphs_to_10, st.integers(min_value=0, max_value=3))
    def test_matches_reference(self, g, t):
        assert_matches_reference(g, t)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 32])
    def test_matches_reference_on_shuffled_trees(self, n, seed):
        for t in range(4):
            assert_matches_reference(random_tree(n, seed), t)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "family", ["grid:2,3", "grid:2,10", "grid:2,16", "cycle:3", "cycle:12", "cycle:32"]
    )
    def test_matches_reference_on_ladders_and_cycles(self, family, seed):
        g = shuffled(generate(parse_family(family)), seed)
        for t in range(4):
            assert_matches_reference(g, t)

    def test_matches_reference_when_fill_makes_a_non_neighbour_simplicial(self):
        # eliminating 1 joins 0 and 3, which makes their common neighbour 5
        # simplicial, so 5 goes before the lower-id vertex 2
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 3), (2, 4), (3, 4), (3, 5)])
        assert_matches_reference(g, 2)
        assert decide_tw_leq(g, 2).bags[1] == frozenset({0, 3, 5})

    @settings(max_examples=50, deadline=None)
    @given(small_graphs)
    def test_certificates_validate(self, g):
        tw = brute_treewidth(g)
        td = decide_tw_leq(g, tw)
        assert validate(td) == []
        assert width(td) <= tw


class TestValidate:
    def test_detects_uncovered_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        td = TreeDecomposition(g, (None, 0), (frozenset({0}), frozenset({1})))
        msgs = mask_messages(td)
        assert any("edge (0,1)" in m for m in msgs)
        # every kind of bag fault at once, in validate's order
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        bags = (frozenset({0, 6}), frozenset({3, 4, 5}), frozenset({0, 3}))
        assert mask_messages(TreeDecomposition(g, (None, 0, 0), bags)) == [
            "bag vertex 6 outside the host graph",
            "bag vertex 5 outside the host graph",
            "vertex 1 appears in no bag",
            "vertex 2 appears in no bag",
            "occurrences of vertex 3 are disconnected",
        ] + [f"edge ({u},{v}) not contained in any bag" for u, v in [(0, 1), (0, 2), (1, 3), (2, 3)]]

    def test_detects_missing_vertex(self):
        g = Graph.from_edges(2, [])
        td = TreeDecomposition(g, (None,), (frozenset({0}),))
        assert any("vertex 1" in m for m in mask_messages(td))

    def test_detects_disconnected_occurrence(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        td = TreeDecomposition(
            g,
            (None, 0, 1),
            (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})),
        )
        assert any("disconnected" in m for m in mask_messages(td))

    def test_detects_two_roots(self):
        g = Graph.from_edges(1, [])
        td = TreeDecomposition(g, (None, None), (frozenset({0}), frozenset({0})))
        assert any("root" in m for m in mask_messages(td))

    def test_detects_parent_cycle(self):
        g = Graph.from_edges(1, [])
        td = TreeDecomposition(g, (None, 2, 1), (frozenset({0}),) * 3)
        assert mask_messages(td) == ["cycle in parent links through node 1"]

    def test_bag_vertex_outside_graph(self):
        g = Graph.from_edges(2, [(0, 1)])
        td = TreeDecomposition(g, (None,), (frozenset({0, 1, 2}),))
        assert mask_messages(td) == ["bag vertex 2 outside the host graph"]
        with pytest.raises(ValueError, match="outside the host graph"):
            make_nice(td)
        below = TreeDecomposition(g, (None,), (frozenset({-1, 0, 1}),))
        assert validate(below) == ["bag vertex -1 outside the host graph"]

    @settings(max_examples=150, deadline=None)
    @given(
        graphs_to_10,
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["none", "drop", "add", "repoint", "root"]),
        st.integers(min_value=0, max_value=99),
        st.integers(min_value=0, max_value=99),
    )
    def test_matches_reference(self, g, t, kind, a, b):
        td = decide_tw_leq(g, t)
        if td is None:
            return
        nice = make_nice(td)
        assert validate_nice(nice, nice_kinds(nice.parent, nice.bags)) == []
        for d in (td, nice):
            assert_validate_matches_reference(d)
            assert_validate_matches_reference(mutate(d, kind, a, b))


class TestNiceForm:
    @settings(max_examples=50, deadline=None)
    @given(small_graphs)
    def test_nice_form_is_valid_and_width_preserving(self, g):
        tw = brute_treewidth(g)
        td = decide_tw_leq(g, tw)
        nice = make_nice(td)
        assert validate(nice) == validate_nice(nice, nice_kinds(nice.parent, nice.bags)) == []
        assert width(nice) <= width(td)

    def test_kinds_partition_nodes(self):
        g = generate(parse_family("grid:2,3"))
        nice = make_nice(decide_tw_leq(g, 2))
        assert type(nice) is TreeDecomposition
        assert set(nice_kinds(nice.parent, nice.bags)) <= {"leaf", "introduce", "forget", "join"}

    def test_join_appears_for_branching_graph(self):
        g = generate(parse_family("star-of-paths:3,3"))
        nice = make_nice(decide_tw_leq(g, 1))
        assert "join" in nice_kinds(nice.parent, nice.bags)

    def test_kind_validator_flags_each_fault(self):
        # path 0-1-2 as leaf {0}, introduce {0,1}, forget {1}, introduce {1,2}
        g = generate(parse_family("path:3"))
        bags = tuple(map(frozenset, ({0}, {0, 1}, {1}, {1, 2})))
        td = TreeDecomposition(g, (1, 2, 3, None), bags)
        kinds = nice_kinds(td.parent, td.bags)
        assert kinds == [LEAF, INTRODUCE, FORGET, INTRODUCE]
        assert validate_nice(td, kinds) == []
        assert validate_nice(td, kinds[:3]) == ["kinds/bag arrays differ in length"]
        assert validate_nice(td, [INTRODUCE, JOIN, INTRODUCE, FORGET]) == [
            "introduce node 0 must have one child",
            "join node 1 must have two children",
            "introduce node 2 does not add exactly one vertex",
            "forget node 3 does not drop exactly one vertex",
        ]
        assert validate_nice(td, [LEAF, LEAF, "bud", JOIN]) == [
            "leaf node 1 has children",
            "leaf node 1 has bag of size 2",
            "node 2 has unknown kind 'bud'",
            "join node 3 must have two children",
        ]

    def test_rejects_invalid_input(self):
        g = Graph.from_edges(2, [(0, 1)])
        bad = TreeDecomposition(g, (None,), (frozenset({0}),))
        with pytest.raises(ValueError):
            make_nice(bad)

    @settings(max_examples=100, deadline=None)
    @given(graphs_to_10, st.integers(min_value=0, max_value=3))
    def test_matches_reference_on_certificates(self, g, t):
        td = decide_tw_leq(g, t)
        if td is not None:
            nice, (ref, kinds) = make_nice(td), reference_make_nice(td, root(td))
            assert (nice.parent, nice.bags, nice_kinds(nice.parent, nice.bags)) == (ref.parent, ref.bags, kinds)

    @pytest.mark.parametrize(
        "family",
        ["grid-with-pendant-paths:3,3,2,6", "star-of-paths:4,5", "grid:2,8", "random-sparse:14,20"],
    )
    def test_matches_reference_on_xr_witnesses(self, family):
        g = shuffled(generate(parse_family(family)), 0)
        checked = 0
        for R in itertools.chain.from_iterable(
            itertools.combinations(range(g.n), size) for size in (1, 2)
        ):
            xr = compute_xr(g, R)
            if not xr.components:
                continue
            td = xr_protrusion(g, R, xr).witness
            assert validate(td) == reference_validate(td) == []
            nice, (ref, kinds) = make_nice(td), reference_make_nice(td, root(td))
            assert (nice.parent, nice.bags, nice_kinds(nice.parent, nice.bags)) == (ref.parent, ref.bags, kinds)
            checked += 1
        assert checked > 0
