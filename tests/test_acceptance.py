"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the summary lines.
"""

import itertools
import random
import time
from collections import defaultdict

import networkx as nx
import pytest

from protkern import replace
from protkern.boundaried import boundary_of, enumerate_boundaried, glue
from protkern.engine import SPLIT_C, EngineConfig, meta_kernelize, trivial_instance
from protkern.graph import Graph, generate, induced_subgraph, parse_family
from protkern.problems import (
    ProblemInstance,
    brute_opt,
    compute_signature,
    decide,
    get_problem,
    sct_preprocess,
)
from protkern.protrusion import is_protrusion, partition_protrusion, split_protrusion
from protkern.treewidth import decide_tw_leq

ALL_PROBLEMS = [
    get_problem("vc"),
    get_problem("ds"),
    get_problem("is"),
    get_problem("scattered", r=2),
    get_problem("cyclepacking"),
    get_problem("sct", s=3),
]


def report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared instance corpus (criteria 1 and 8)

CORPUS_FAMILIES = [
    ("grid:2,2", 0), ("grid:2,3", 1), ("grid:2,4", 2), ("grid:3,3", 3),
    ("grid:3,4", 4),
    ("star-of-paths:3,2", 5), ("star-of-paths:3,3", 6), ("star-of-paths:4,2", 7),
    ("path:5+cycle:4", 8), ("grid:2,2+path:4", 9), ("cycle:3+cycle:4", 10),
    ("path:3+path:4+cycle:3", 11), ("path:12", 12), ("cycle:12", 13),
] + [
    (f"random-sparse:{n},{m}", seed)
    for seed, (n, m) in enumerate(
        [(8, 10), (9, 11), (10, 12), (11, 13), (12, 14), (12, 16),
         (8, 12), (9, 13), (10, 14), (11, 15), (12, 15), (10, 11),
         (8, 9), (9, 10), (10, 10), (11, 12), (12, 12), (9, 12),
         (10, 13), (11, 14), (12, 13), (8, 11), (9, 9), (10, 15),
         (11, 11), (12, 17), (12, 14), (12, 15), (12, 16), (12, 17),
         (11, 13), (11, 14), (12, 13)],
        start=100,
    )
]


@pytest.fixture(scope="module")
def corpus_runs():
    """Kernelize every corpus instance once; both soundness and progress
    criteria read from the same runs."""
    graphs = [generate(parse_family(f, seed=s)) for f, s in CORPUS_FAMILIES]
    cfg = EngineConfig(t=1, size_threshold=11)
    runs = {}
    start = time.monotonic()
    for spec in ALL_PROBLEMS:
        entries = []
        for g in graphs:
            opt = brute_opt(spec, g)
            for k in range(g.n + 1):
                inst = ProblemInstance(g, k, spec)
                out, log = meta_kernelize(inst, cfg)
                entries.append((inst, opt, out, log))
        runs[(spec.id, spec.params)] = entries
    wall = time.monotonic() - start
    return {"runs": runs, "wall": wall, "cfg": cfg}


def test_01_kernelization_preserves_decisions(corpus_runs):
    mismatches = 0
    counts = {}
    for key, entries in corpus_runs["runs"].items():
        counts[key] = len(entries)
        spec = get_problem(key[0], r=key[1][0] if key[0] in ("scattered",) else None,
                           s=key[1][0] if key[0] == "sct" else None)
        for inst, opt, out, _log in entries:
            want = (opt <= inst.k) if spec.direction == "min" else (opt >= inst.k)
            if decide(out) != want:
                mismatches += 1
    ok = (
        mismatches == 0
        and all(c >= 500 for c in counts.values())
        and corpus_runs["wall"] < 600
    )
    report(
        1,
        ok,
        f"{min(counts.values())}+ instances per problem across 6 problems, "
        f"{mismatches} decision mismatches, corpus wall {corpus_runs['wall']:.0f}s",
    )
    assert mismatches == 0
    assert all(c >= 500 for c in counts.values()), counts
    assert corpus_runs["wall"] < 600


def _triangle_chain(count: int) -> Graph:
    """count triangles, each sharing a vertex with the next: every vertex lies
    on a triangle, so sct (s = 3) keeps the graph and can reduce it."""
    edges = [(2 * i + a, 2 * i + b) for i in range(count) for a, b in ((0, 1), (1, 2), (0, 2))]
    return Graph.from_edges(2 * count + 1, edges)


# criterion 1 at t = 2 (cut sets of up to four vertices), on graphs of 12 to
# 16 vertices and at most 20 edges, so every problem is within the oracle caps
WIDTH_TWO_FAMILIES = [
    ("path:12", 0), ("path:16", 0), ("cycle:13", 0),
    ("grid:2,6", 0), ("grid:2,7", 0), ("grid:3,4", 0),
    ("star-of-paths:3,4", 0), ("star-of-paths:5,3", 0), ("path:5+cycle:8", 0),
    ("random-sparse:13,14", 1), ("random-sparse:15,10", 3), ("random-sparse:16,8", 4),
]


def test_01_at_width_two(monkeypatch):
    graphs = [generate(parse_family(f, seed=s)) for f, s in WIDTH_TWO_FAMILIES]
    graphs.append(_triangle_chain(6))
    signature = replace.compute_signature

    def at_most_four_sct_labels(spec, b, t):
        # a five-label sct signature takes seconds and hundreds of MB
        if spec.id == "sct" and len(b.labels) > 4:
            raise AssertionError(f"sct window with {len(b.labels)} labels")
        return signature(spec, b, t)

    monkeypatch.setattr(replace, "compute_signature", at_most_four_sct_labels)
    cfg = EngineConfig(t=2, size_threshold=11)
    steps = {spec.id: 0 for spec in ALL_PROBLEMS}
    mismatches = 0
    start = time.monotonic()
    for spec in ALL_PROBLEMS:
        for g in graphs:
            opt = brute_opt(spec, g)
            for k in range(g.n + 1):
                out, log = meta_kernelize(ProblemInstance(g, k, spec), cfg)
                steps[spec.id] += len(log.steps)
                want = (opt <= k) if spec.direction == "min" else (opt >= k)
                mismatches += decide(out) != want
    wall = time.monotonic() - start
    report(1, mismatches == 0 and min(steps.values()) > 0,
           f"at t = 2: {len(graphs)} graphs, steps per problem {steps}, "
           f"{mismatches} decision mismatches, wall {wall:.0f}s")
    assert mismatches == 0
    assert min(steps.values()) > 0, steps


# ---------------------------------------------------------------------------
# criterion 2: equal signature class implies a shared transposition constant


def test_02_equal_signatures_share_transposition():
    contexts = {L: list(enumerate_boundaried(5, L)) for L in (0, 1, 2)}
    violations = 0
    checked = 0
    for spec in ALL_PROBLEMS:
        memo = {}

        def opt(g):
            key = (g.n, g.edges)
            if key not in memo:
                memo[key] = brute_opt(spec, g)
            return memo[key]

        for L, blist in contexts.items():
            groups = defaultdict(list)
            for b in blist:
                sig = compute_signature(spec, b, 2)
                groups[b.boundary_subgraph().edges, sig.class_key()].append((b, sig))
            for members in groups.values():
                if len(members) < 2:
                    continue
                for f in contexts[L]:
                    base = None
                    for b, sig in members:
                        diff = opt(glue(b, f).graph) - sig.offset
                        if base is None:
                            base = diff
                        elif diff != base:
                            violations += 1
                        checked += 1
    report(2, violations == 0,
           f"{checked} grouped context evaluations, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# randomized protrusion hosts (criteria 3 and 4)


def _random_protrusion_host(rng):
    """Small random core with a pendant path, tree, or ladder protrusion."""
    kind = rng.choice(["path", "tree", "ladder"])
    core = generate(parse_family("random-sparse:6,8", seed=rng.randrange(10**6)))
    edges = list(core.edges)
    base = core.n
    if kind == "path":
        t = 1
        length = rng.randrange(20, 60)
        prev = rng.randrange(core.n)
        for i in range(length):
            edges.append((prev, base + i))
            prev = base + i
        n = base + length
    elif kind == "tree":
        t = 1
        length = rng.randrange(20, 60)
        nodes = [base]
        edges.append((rng.randrange(core.n), base))
        for i in range(1, length):
            edges.append((rng.choice(nodes), base + i))
            nodes.append(base + i)
        n = base + length
    else:
        t = 2
        rungs = rng.randrange(10, 30)
        a, b = rng.sample(range(core.n), 2)
        for i in range(rungs):
            edges.append((base + 2 * i, base + 2 * i + 1))
            if i:
                edges.append((base + 2 * (i - 1), base + 2 * i))
                edges.append((base + 2 * (i - 1) + 1, base + 2 * i + 1))
        edges.append((a, base))
        edges.append((b, base + 1))
        n = base + 2 * rungs
    return Graph.from_edges(n, edges), frozenset(range(base, n)), t


def test_03_window_extraction_contract():
    rng = random.Random(12345)
    violations = 0
    for _ in range(200):
        g, X, t = _random_protrusion_host(rng)
        c = rng.randrange(5, 9)
        p = is_protrusion(g, X, t, vertex_cap=64)
        assert p is not None
        y = split_protrusion(p, c)
        sub, _ = induced_subgraph(g, y)
        ok = (
            c < len(y) <= 2 * c
            and len(boundary_of(g, y)) <= 2 * t + 1
            and is_protrusion(g, y, 2 * t + 1, vertex_cap=64) is not None
            and decide_tw_leq(sub, 2 * t) is not None
        )
        if not ok:
            violations += 1
    report(3, violations == 0,
           f"200 randomized windows, {violations} contract violations")
    assert violations == 0


def _marked_protrusion(rng):
    """A random protrusion host, its protrusion, and 1-4 marked interior vertices."""
    g, X, t = _random_protrusion_host(rng)
    p = is_protrusion(g, X, t, vertex_cap=64)
    interior = sorted(X - boundary_of(g, X))
    return g, p, frozenset(rng.sample(interior, min(len(interior), rng.randrange(1, 5))))


def test_04_marked_partition_contract():
    rng = random.Random(999)
    hard = 0
    flagged = 0
    for _ in range(100):
        g, p, Z = _marked_protrusion(rng)
        X, t = p.X, p.t
        res = partition_protrusion(g, p, Z, vertex_cap=64)
        covered = set()
        for q in res.parts:
            covered |= q.X
            if is_protrusion(g, q.X, 4 * t + 2, vertex_cap=64) is None:
                hard += 1
            if not (Z & q.X) <= boundary_of(g, q.X):
                hard += 1
        if covered != X:
            hard += 1
        if len(res.parts) > 4 * (len(Z) + 1):
            flagged += 1  # size-of-list bound is reported, not enforced
    report(4, hard == 0,
           f"100 randomized partitions, {hard} hard violations, "
           f"{flagged} flagged on the part-count bound")
    assert hard == 0


# ---------------------------------------------------------------------------
# criterion 5: empirical kernel scaling on pendant-path families
#
# Both families are a core graph with p pendant paths of L edges attached
# round-robin to the core's vertices: star-of-paths:p,L on a single hub, and
# grid-with-pendant-paths:3,3,p,L on a 3x3 grid.  The size sweep runs at the
# tight YES budget k = OPT(G), computed exactly by the helpers below.

PENDANT_FAMILIES = (
    ("star-of-paths:{k},50", "path:1"),
    ("grid-with-pendant-paths:3,3,{k},50", "grid:3,3"),
)


def _vc_pendant_opt(core: Graph, p: int, L: int) -> int:
    """Vertex cover of the core plus p pendant paths of even length L.

    A pendant path of even length costs L/2 whether or not its attachment
    vertex is in the cover, and it covers no core edge.
    """
    if L % 2:
        raise ValueError("closed form holds for even L only")
    return brute_opt(get_problem("vc"), core) + p * L // 2


def _ds_arm(L: int, a_in: bool, first_in: bool) -> float:
    """Fewest vertices of a pendant path v1..vL in a dominating set.

    a_in says whether the attachment vertex is in the set; first_in fixes
    whether v1 is.  States per vertex: 0 in the set, 1 out and dominated,
    2 out and still needing its successor.
    """
    cost = {0: 1} if first_in else ({1: 0} if a_in else {2: 0})
    for _ in range(L - 1):
        nxt = {0: min(cost.values()) + 1}
        if 0 in cost:
            nxt[1] = cost[0]
        if 1 in cost:
            nxt[2] = cost[1]
        cost = nxt
    return min((c for state, c in cost.items() if state != 2), default=float("inf"))


def _ds_pendant_opt(core: Graph, p: int, L: int) -> float:
    """Dominating set of the core plus p pendant paths of length L.

    Exhaustive over subsets S of the core; each pendant path adds its
    cheapest completion given whether its attachment vertex is in S.  A core
    vertex outside S with no neighbor in S needs one of its paths to put v1
    in the set.
    """
    arm = {(a, f): _ds_arm(L, a, f) for a in (False, True) for f in (False, True)}
    arms = [sum(1 for i in range(p) if i % core.n == v) for v in range(core.n)]
    best = float("inf")
    for S in range(1 << core.n):
        cost = bin(S).count("1")
        for v in range(core.n):
            if S >> v & 1:
                cost += arms[v] * min(arm[True, False], arm[True, True])
            elif core.adj_masks[v] & S:
                cost += arms[v] * min(arm[False, False], arm[False, True])
            elif arms[v]:
                cheap = min(arm[False, False], arm[False, True])
                cost += (arms[v] - 1) * cheap + arm[False, True]
            else:
                cost = float("inf")
        best = min(best, cost)
    return best


PENDANT_OPT = {"vc": _vc_pendant_opt, "ds": _ds_pendant_opt}


@pytest.mark.parametrize(
    "pid, family, core, p, L",
    [
        (pid, f"star-of-paths:{p},{L}", "path:1", p, L)
        for pid in ("vc", "ds")
        for p, L in ((3, 4), (2, 6), (5, 2))
    ]
    + [
        (pid, f"grid-with-pendant-paths:3,3,{p},{L}", "grid:3,3", p, L)
        for pid in ("vc", "ds")
        for p, L in ((2, 2), (3, 2))
    ]
    + [
        ("ds", "star-of-paths:3,3", "path:1", 3, 3),
        ("ds", "star-of-paths:4,1", "path:1", 4, 1),
        ("ds", "grid-with-pendant-paths:3,3,2,3", "grid:3,3", 2, 3),
        ("ds", "grid-with-pendant-paths:2,2,4,1", "grid:2,2", 4, 1),
    ],
)
def test_pendant_opt_matches_oracle(pid, family, core, p, L):
    g = generate(parse_family(family))
    got = PENDANT_OPT[pid](generate(parse_family(core)), p, L)
    assert got == brute_opt(get_problem(pid), g)


def test_05_kernel_size_scales_linearly():
    cfg = EngineConfig(t=1)
    ks = list(range(2, 21, 2))
    start = time.monotonic()
    failures = []
    for pid in ("ds", "vc"):
        spec = get_problem(pid)
        no_kernel = trivial_instance(spec)
        for template, core_family in PENDANT_FAMILIES:
            core = generate(parse_family(core_family))
            rows = []
            for p in ks:
                g = generate(parse_family(template.format(k=p)))
                k = PENDANT_OPT[pid](core, p, 50)
                out, log = meta_kernelize(ProblemInstance(g, k, spec), cfg)
                collapsed = (
                    any(s["k_after"] < 0 for s in log.steps)
                    or (out.graph, out.k) == (no_kernel.graph, no_kernel.k)
                    or out.k < 1
                )
                if collapsed:
                    failures.append(
                        f"{pid} {template.format(k=p)} at k = OPT = {k}: YES "
                        f"instance collapsed to (n={out.graph.n}, k={out.k})"
                    )
                    continue
                rows.append((out.graph.n, out.k))
            if not rows:
                continue
            ratios = [n / k for n, k in rows]
            spread = max(ratios) / min(ratios)
            if spread > 2:
                failures.append(
                    f"{pid} {template}: n'/k' spread {spread:.2f} > 2 "
                    f"(kernels (n', k') {rows})"
                )
    for pid in ("ds", "vc"):
        spec = get_problem(pid)
        for k in (2, 10, 20):
            sizes = {}
            for L in (20, 50, 100):
                g = generate(parse_family(f"star-of-paths:{k},{L}"))
                sizes[L] = meta_kernelize(ProblemInstance(g, k, spec), cfg)[0].graph.n
            if len(set(sizes.values())) != 1:
                failures.append(f"{pid} k={k}: kernel varies with pendant length {sizes}")
        # on YES instances, at k = OPT, kernels may differ by at most one
        # window of 2 * SPLIT_C vertices
        core = generate(parse_family("path:1"))
        for p in (2, 10):
            sizes = {}
            for L in (20, 50, 100):
                g = generate(parse_family(f"star-of-paths:{p},{L}"))
                k = PENDANT_OPT[pid](core, p, L)
                sizes[L] = meta_kernelize(ProblemInstance(g, k, spec), cfg)[0].graph.n
            if max(sizes.values()) - min(sizes.values()) > 2 * SPLIT_C:
                failures.append(
                    f"{pid} p={p} at k = OPT: kernel varies with pendant length {sizes}"
                )
    wall = time.monotonic() - start
    if wall >= 300:
        failures.append(f"sweeps took {wall:.0f}s, budget 300s")
    report(5, not failures,
           f"wall {wall:.0f}s; " + ("; ".join(failures) if failures else
                                    "n'/k' spread <= 2 at k = OPT and "
                                    "pendant-length independent"))
    assert not failures, failures


# ---------------------------------------------------------------------------
# criterion 6: dominating set witness monotonicity


def _min_dominating_set(g: Graph):
    if g.n == 0:
        return set()
    full = (1 << g.n) - 1
    closed = [(1 << v) | sum(1 << u for u in g.adj[v]) for v in range(g.n)]
    for r in range(g.n + 1):
        for S in itertools.combinations(range(g.n), r):
            m = 0
            for v in S:
                m |= closed[v]
            if m == full:
                return set(S)
    raise AssertionError("unreachable")


def test_06_dominating_set_witness_monotone():
    DS = get_problem("ds")
    violations = 0
    checked = 0
    for L in (0, 1, 2):
        hosts = list(enumerate_boundaried(5, L))
        contexts = list(enumerate_boundaried(4, L))
        for B in hosts:
            ds_b = _min_dominating_set(B.graph)
            for F in contexts:
                res = glue(B, F)
                gg = res.graph
                closed = [(1 << v) | sum(1 << u for u in gg.adj[v])
                          for v in range(gg.n)]
                full = (1 << gg.n) - 1
                W = {res.heir1[v] for v in ds_b} | {res.heir1[v] for v in B.boundary}
                w_cover = 0
                for v in W:
                    w_cover |= closed[v]
                b_side = [res.heir1[v] for v in range(B.graph.n)]
                f_side = sorted(set(res.heir2.values()))
                for bits in range(1 << len(f_side)):
                    sp = [f_side[i] for i in range(len(f_side)) if bits >> i & 1]
                    sp_cover = 0
                    for v in sp:
                        sp_cover |= closed[v]
                    zeta = None
                    for r in range(len(b_side) + 1):
                        for S in itertools.combinations(b_side, r):
                            m = sp_cover
                            for v in S:
                                m |= closed[v]
                            if m == full:
                                zeta = r
                                break
                        if zeta is not None:
                            break
                    checked += 1
                    if zeta is None:
                        continue  # no completion exists; nothing to witness
                    if (w_cover | sp_cover) != full:
                        violations += 1
                    if len(W) > zeta + 2 * L:
                        violations += 1
    report(6, violations == 0,
           f"{checked} host/context/seed-set combinations, {violations} violations")
    assert violations == 0


# ---------------------------------------------------------------------------
# criterion 7: short-cycle preprocessing is exhaustively decision-preserving


def test_07_short_cycle_preprocess_exhaustive():
    atlas = [a for a in nx.graph_atlas_g() if a.number_of_nodes() <= 6]
    violations = 0
    for s in (3, 4):
        spec = get_problem("sct", s=s)
        for ag in atlas:
            nodes = sorted(ag.nodes())
            idx = {v: i for i, v in enumerate(nodes)}
            g = Graph.from_edges(
                len(nodes), [(idx[u], idx[v]) for u, v in ag.edges()]
            )
            out, _ = sct_preprocess(g, s)
            before = brute_opt(spec, g)
            after = brute_opt(spec, out)
            # equal optima give equal YES/NO answers at every budget k
            for k in range(-1, g.m + 2):
                if (before <= k) != (after <= k):
                    violations += 1
    report(7, violations == 0,
           f"{len(atlas)} graphs up to isomorphism, s in {{3,4}}, every budget, "
           f"{violations} disagreements")
    assert violations == 0


# ---------------------------------------------------------------------------
# criterion 8: progress, termination, quiescence across the corpus runs


def test_08_monotone_progress_and_quiescence(corpus_runs):
    cfg = corpus_runs["cfg"]
    bad_steps = 0
    overlong = 0
    restless = 0
    total_steps = 0
    for entries in corpus_runs["runs"].values():
        for inst, _opt, out, log in entries:
            total_steps += len(log.steps)
            for s in log.steps:
                if not (s["n_after"] < s["n_before"] and s["k_after"] <= s["k_before"]):
                    bad_steps += 1
            if len(log.steps) > inst.graph.n:
                overlong += 1
            again, log2 = meta_kernelize(out, cfg)
            if log2.steps or again.graph != out.graph or again.k != out.k:
                restless += 1
    ok = bad_steps == 0 and overlong == 0 and restless == 0
    report(8, ok,
           f"{total_steps} logged steps all shrinking, {overlong} runs over the "
           f"step bound, {restless} second passes with activity")
    assert bad_steps == 0
    assert overlong == 0
    assert restless == 0
