"""Six concrete problems: brute-force optima and finite boundary signatures."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .boundaried import BoundariedGraph
from .errors import OracleCapExceeded
from .graph import Graph, induced_subgraph

MIN = "min"
MAX = "max"
INF = math.inf

ORACLE_VERTEX_CAP = 16
ORACLE_EDGE_CAP = 20

IN = "I"
DOM = "D"
FREE = "F"


@dataclass(frozen=True)
class ProblemSpec:
    id: str
    direction: str
    solution_domain: str  # "vertex-set" | "edge-set"
    params: tuple[int, ...] = ()

    @property
    def r(self) -> int:
        return self.params[0]

    @property
    def s(self) -> int:
        return self.params[0]


PROBLEM_IDS = ("vc", "ds", "is", "scattered", "cyclepacking", "sct")


def get_problem(pid: str, r: int | None = None, s: int | None = None) -> ProblemSpec:
    """Spec of problem `pid`; a parameter the problem does not take is an error."""
    if pid not in PROBLEM_IDS:
        raise ValueError(f"unknown problem id '{pid}'")
    if r not in (None, 1) and pid == "ds":
        raise ValueError("ds takes only --r 1")
    if r is not None and pid not in ("ds", "scattered"):
        raise ValueError(f"problem '{pid}' takes no --r")
    if s is not None and pid != "sct":
        raise ValueError(f"problem '{pid}' takes no --s")
    if pid == "vc":
        return ProblemSpec("vc", MIN, "vertex-set")
    if pid == "ds":
        return ProblemSpec("ds", MIN, "vertex-set")
    if pid == "is":
        return ProblemSpec("is", MAX, "vertex-set")
    if pid == "scattered":
        if r is None or r < 1:
            raise ValueError("scattered needs --r >= 1")
        return ProblemSpec("scattered", MAX, "vertex-set", (r,))
    if pid == "cyclepacking":
        return ProblemSpec("cyclepacking", MAX, "edge-set")
    if s is None or s < 3:
        raise ValueError("sct needs --s >= 3")
    return ProblemSpec("sct", MIN, "edge-set", (s,))


@dataclass(frozen=True)
class ProblemInstance:
    graph: Graph
    k: int
    spec: ProblemSpec


@dataclass
class Signature:
    """Boundary-state table of a boundaried graph, normalized by its offset."""

    label_set: frozenset[int]
    offset: int
    table: dict
    ell: dict | None = None  # boundary distance matrix, scattered problems only

    def class_key(self) -> tuple:
        """Hashable (label set, table states, table values, ell); offsets may differ."""
        states = tuple(sorted(self.table))
        ell = None if self.ell is None else tuple(sorted(self.ell.items()))
        return (self.label_set, states, tuple(self.table[s] for s in states), ell)

    def same_class(self, other: "Signature") -> bool:
        """Equivalence for replacement purposes; offsets may differ."""
        return self.class_key() == other.class_key()


# ---------------------------------------------------------------------------
# brute-force optima


def _check_cap(spec: ProblemSpec, g: Graph) -> None:
    if spec.solution_domain == "edge-set":
        if g.m > ORACLE_EDGE_CAP:
            raise OracleCapExceeded(
                f"{g.m} edges exceed the oracle edge cap {ORACLE_EDGE_CAP}"
            )
        if g.n > 2 * ORACLE_EDGE_CAP + 2:
            raise OracleCapExceeded("too many vertices for the edge-problem oracle")
    elif g.n > ORACLE_VERTEX_CAP:
        raise OracleCapExceeded(
            f"{g.n} vertices exceed the oracle vertex cap {ORACLE_VERTEX_CAP}"
        )


def _max_independent(conflict: tuple[int, ...], allowed: int, memo: dict | None = None) -> int:
    """Largest subset of `allowed` inducing no conflict-mask adjacency.

    The answer for a mask depends only on `conflict`, so calls with the same
    conflict masks may share one `memo` dict.
    """
    if memo is None:
        memo = {}

    def go(mask: int) -> int:
        if mask == 0:
            return 0
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        best = go(mask & ~(1 << v))  # skip v
        best = max(best, 1 + go(mask & ~(1 << v) & ~conflict[v]))
        memo[mask] = best
        return best

    return go(allowed)


def _ball(masks, v: int, r: int) -> list[int]:
    """row[d] is the mask of the vertices within distance d of v, d = 0..r."""
    ball = frontier = 1 << v
    row = [ball]
    for _ in range(r):
        grown = ball
        while frontier:
            low = frontier & -frontier
            grown |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = grown & ~ball
        ball = grown
        row.append(ball)
    return row


def _balls(g: Graph, r: int) -> list[list[int]]:
    return [_ball(g.adj_masks, v, r) for v in range(g.n)]


def _on_short_cycle(masks: list[int], u: int, v: int, s: int) -> bool:
    """Whether the edge uv lies on a cycle of length <= s: is v within s - 1
    steps of u without the edge uv?  `masks` is restored before returning."""
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u
    found = _ball(masks, u, s - 1)[-1] >> v & 1
    masks[u] ^= 1 << v
    masks[v] ^= 1 << u
    return bool(found)


def _scattered_conflicts(balls: list[list[int]], r: int) -> tuple[int, ...]:
    return tuple(row[r] & ~(1 << v) for v, row in enumerate(balls))


def _min_dominating(g: Graph, required: int, candidates: int, forced: int):
    """Min |S|, forced ⊆ S ⊆ forced|candidates, with required ⊆ N[S].

    Returns INF when even the largest admissible S fails.
    """
    balls = [g.adj_masks[v] | (1 << v) for v in range(g.n)]
    base = 0
    for v in range(g.n):
        if forced >> v & 1:
            base |= balls[v]
    free = [v for v in range(g.n) if candidates >> v & 1]
    best = INF
    nforced = bin(forced).count("1")
    for size in range(0, len(free) + 1):
        if nforced + size >= best:
            break
        for pick in itertools.combinations(free, size):
            cov = base
            for v in pick:
                cov |= balls[v]
            if required & ~cov == 0:
                best = nforced + size
                break
        if best < INF:
            break
    return best


def _paths(masks, v: int, within: int):
    """Each simple path from v through the mask `within`, depth-first: (its mask, its end)."""
    paths = [(1 << v, v)]
    while paths:
        used, u = paths.pop()
        yield used, u
        nxt = masks[u] & within & ~used
        while nxt:
            low = nxt & -nxt
            paths.append((used | low, low.bit_length() - 1))
            nxt ^= low


def _max_cycle_packing(masks: tuple[int, ...], avail: int, memo: dict | None = None) -> int:
    """Most vertex-disjoint cycles inside the vertex mask `avail`: its least
    vertex v is left out, or closes a cycle along a path through the rest.
    Calls with the same adjacency masks may share one `memo` dict."""
    if memo is None:
        memo = {}

    def go(avail: int) -> int:
        if avail.bit_count() < 3:
            return 0
        if avail in memo:
            return memo[avail]
        v = (avail & -avail).bit_length() - 1
        rest = avail ^ 1 << v
        best = go(rest)
        for used, u in _paths(masks, v, rest):
            if used.bit_count() >= 3 and masks[u] >> v & 1:
                best = max(best, 1 + go(avail & ~used))
        memo[avail] = best
        return best

    return go(avail)


def _short_cycle(masks: list[int], s: int) -> list[int] | None:
    """Closed vertex walk u, v, ..., u of a shortest cycle through the first
    edge uv, in sorted order, that lies on a cycle of length <= s; None if no
    edge does.  u's BFS layers without the edge uv grow until one meets a
    neighbour of v or the cycle would be longer than s."""
    for u, row in enumerate(masks):
        later = row >> u + 1 << u + 1
        while later:
            bit = later & -later
            later ^= bit
            v = bit.bit_length() - 1
            layers = [row ^ bit]
            seen = 1 << u | row  # v stays out of the layers
            while layers[-1] and not layers[-1] & masks[v] and len(layers) < s - 2:
                grown, frontier = 0, layers[-1]
                while frontier:
                    low = frontier & -frontier
                    grown |= masks[low.bit_length() - 1]
                    frontier ^= low
                layers.append(grown & ~seen)
                seen |= grown
            if layers[-1] & masks[v]:
                walk = [u, v]  # back from v, one layer at a time
                for layer in reversed(layers):
                    near = masks[walk[-1]] & layer
                    walk.append((near & -near).bit_length() - 1)
                return walk + [u]
    return None


def _min_short_cycle_transversal(masks: list[int], s: int, ub: float = INF) -> float:
    """Fewest edge deletions leaving no cycle of length <= s, branching on the
    edges of one short cycle; ub if no fewer than ub do (INF when ub <= 0).
    `masks` is restored before returning."""
    walk = _short_cycle(masks, s)
    if walk is None:
        return 0
    if ub <= 0:
        return INF
    best = ub
    for u, v in zip(walk, walk[1:]):
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        best = min(best, 1 + _min_short_cycle_transversal(masks, s, best - 1))
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
    return best


def brute_opt(spec: ProblemSpec, g: Graph) -> int:
    """Exact optimum by exhaustive search; raises OracleCapExceeded above the caps."""
    _check_cap(spec, g)
    full = (1 << g.n) - 1
    if spec.id == "vc":
        return g.n - _max_independent(g.adj_masks, full)
    if spec.id == "is":
        return _max_independent(g.adj_masks, full)
    if spec.id == "scattered":
        return _max_independent(_scattered_conflicts(_balls(g, spec.r), spec.r), full)
    if spec.id == "ds":
        return int(_min_dominating(g, full, full, 0))
    if spec.id == "cyclepacking":
        return _max_cycle_packing(g.adj_masks, (1 << g.n) - 1)
    if spec.id == "sct":
        return int(_min_short_cycle_transversal(list(g.adj_masks), spec.s))
    raise ValueError(f"unknown problem id '{spec.id}'")


def decide(inst: ProblemInstance) -> bool:
    """YES/NO as a bool; negative k is answered by the direction convention."""
    if inst.k < 0:
        return inst.spec.direction == MAX
    opt = brute_opt(inst.spec, inst.graph)
    if inst.spec.direction == MIN:
        return opt <= inst.k
    return opt >= inst.k


# ---------------------------------------------------------------------------
# signatures


def _boundary_in_label_order(b: BoundariedGraph) -> list[int]:
    return [v for _, v in sorted(zip(b.labels, b.boundary))]


def _signature(
    spec: ProblemSpec, b: BoundariedGraph, raw: dict, cap: int, reference: int, ell: dict | None = None
) -> Signature:
    """Normalize raw state values by the offset, the best finite value in the
    spec's direction; infinite values and those worse than the offset by more
    than `cap` become the direction's infinity.  The offset must exist and
    equal `reference`, the optimum computed without the table."""
    worst = INF if spec.direction == MIN else -INF
    finite = [z for z in raw.values() if z != worst]
    if not finite:
        raise AssertionError(f"{spec.id} signature table has no finite entry")
    offset = (min if spec.direction == MIN else max)(finite)
    if offset != reference:
        raise AssertionError(
            f"{spec.id} signature offset {offset} differs from the reference optimum {reference}"
        )
    table = {
        key: worst if abs(z - offset) > cap else int(z - offset)
        for key, z in raw.items()
    }
    return Signature(b.label_set, offset, table, ell)


def _vc_table(b: BoundariedGraph) -> dict:
    """Per sorted label tuple T: min vertex cover meeting the boundary in T."""
    g = b.graph
    labels = sorted(b.labels)
    bverts = _boundary_in_label_order(b)
    masks = g.adj_masks
    interior = sum(1 << v for v in b.interior())
    raw = {}
    memo: dict[int, int] = {}
    for picks in itertools.chain.from_iterable(
        itertools.combinations(range(len(labels)), sz)
        for sz in range(len(labels) + 1)
    ):
        # B - T stays out of the cover, so its neighbours go in; the rest of
        # the interior takes a minimum cover, the complement of an MIS
        out = [bverts[i] for i in range(len(labels)) if i not in picks]
        nbrs = 0
        for v in out:
            nbrs |= masks[v]
        key = tuple(labels[i] for i in picks)
        if any(nbrs >> v & 1 for v in out):
            raw[key] = INF
        else:
            raw[key] = g.n - len(out) - _max_independent(masks, interior & ~nbrs, memo)
    return raw


def _ds_table(b: BoundariedGraph, interior: int) -> dict:
    """Three states per boundary vertex: in the set, dominated, or unconstrained."""
    bverts = _boundary_in_label_order(b)
    raw = {}
    for states in itertools.product((IN, DOM, FREE), repeat=len(bverts)):
        forced = 0
        required = interior
        for st, v in zip(states, bverts):
            if st == IN:
                forced |= 1 << v
            elif st == DOM:
                required |= 1 << v
        raw[states] = _min_dominating(b.graph, required, interior, forced)
    return raw


def _matchings(labels: tuple[int, ...]):
    """All partial matchings on the sorted `labels`, as sorted tuples of pairs."""
    if len(labels) < 2:
        yield ()
        return
    x, tail = labels[0], labels[1:]
    yield from _matchings(tail)  # x stays unmatched
    for i, y in enumerate(tail):
        for rest in _matchings(tail[:i] + tail[i + 1 :]):
            yield ((x, y),) + rest


def _cycle_packing_table(b: BoundariedGraph) -> dict:
    """Table over (reserved labels, boundary matching) states: most disjoint
    cycles left once the best set of disjoint paths links each matched pair,
    avoiding the reserved vertices; -INF if the pairs cannot be linked.

    The reserved set records boundary vertices claimed by cycles that live
    entirely on the other side of the boundary; without it, a triangle through
    a boundary vertex would be conflated with one avoiding it.
    """
    masks = b.graph.adj_masks
    labels = tuple(sorted(b.labels))
    vert = {l: b.vertex_of_label(l) for l in labels}
    memo: dict[int, int] = {}

    def link(pairs: tuple, avail: int) -> float:
        # best packing of what is left of `avail` once `pairs` are linked in it
        if not pairs:
            return _max_cycle_packing(masks, avail, memo)
        x, y = (vert[l] for l in pairs[0])
        ends = (used for used, u in _paths(masks, x, avail) if masks[u] >> y & 1)
        return max((link(pairs[1:], avail & ~used) for used in ends), default=-INF)

    raw = {}
    for bits in range(1 << len(labels)):
        reserved = tuple(l for i, l in enumerate(labels) if bits >> i & 1)
        for R in _matchings(tuple(l for l in labels if l not in reserved)):
            # a path's ends keep their other edge slot for the far side's
            # closing edges, so they carry no cycle and no other path
            taken = sum(1 << vert[l] for l in reserved + sum(R, ()))
            raw[(reserved, R)] = link(R, (1 << b.graph.n) - 1 & ~taken)
    return raw


def _scattered_table(b: BoundariedGraph, r: int) -> tuple[dict, dict]:
    """Per-label distance demands, and the boundary distance matrix capped at r."""
    g = b.graph
    labels = sorted(b.labels)
    bverts = _boundary_in_label_order(b)
    balls = _balls(g, r)
    ell = {}
    for i in range(len(labels)):
        reach = balls[bverts[i]]
        for j in range(i + 1, len(labels)):
            # the distance from i to j, capped at r
            ell[(labels[i], labels[j])] = next(
                (d for d in range(r) if reach[d] >> bverts[j] & 1), r
            )
    conflict = _scattered_conflicts(balls, r)
    # far[i][s]: vertices at distance >= s from boundary vertex i; demand r+1
    # stands for "strictly farther than r", the infinity state
    full = (1 << g.n) - 1
    far = [[full] + [full & ~ball for ball in balls[v]] for v in bverts]
    raw = {}
    memo: dict[int, int] = {}
    for sigma, cols in zip(
        itertools.product(range(r + 2), repeat=len(labels)), itertools.product(*far)
    ):
        allowed = full
        for col in cols:
            allowed &= col
        raw[sigma] = _max_independent(conflict, allowed, memo)
    return raw, ell


def _sct_table(b: BoundariedGraph, s: int) -> dict:
    """Per demand vector over boundary pairs in label order: fewest edge
    deletions that leave no cycle of length <= s and put each pair farther
    apart than its demand."""
    g = b.graph
    bverts = _boundary_in_label_order(b)
    pairs = list(itertools.combinations(range(len(bverts)), 2))
    edges = sorted(g.edges)
    far = (s + 1,) * len(pairs)
    # pair distances capped at s + 1 -> the first deletion size reaching them
    first: dict[tuple, int] = {}
    for cut in itertools.chain.from_iterable(
        itertools.combinations(edges, size) for size in range(len(edges) + 1)
    ):
        masks = list(g.adj_masks)
        for u, v in cut:
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
        if _short_cycle(masks, s) is not None:
            continue
        rows = [_ball(masks, v, s) for v in bverts]
        vec = tuple(
            next((d for d, ball in enumerate(rows[i]) if ball >> bverts[j] & 1), s + 1)
            for i, j in pairs
        )
        first.setdefault(vec, len(cut))
        if vec == far:
            break
    # sizes grow in insertion order, so each demand takes its fewest deletions
    raw: dict[tuple, int] = {}
    for vec, size in first.items():
        for f in itertools.product(*map(range, vec)):
            raw.setdefault(f, size)
    return raw


def compute_signature(spec: ProblemSpec, b: BoundariedGraph, t: int | None = None) -> Signature:
    """b's boundary table for `spec`; t (default: b's boundary size) sets the
    cap of the is, scattered and sct tables."""
    g = b.graph
    _check_cap(spec, g)
    n = len(b.labels)
    if t is None:
        t = n
    ell = None
    if spec.id == "ds":
        full = (1 << g.n) - 1
        interior = full & ~sum(1 << v for v in b.boundary)
        # the offset leaves the boundary undominated
        reference = _min_dominating(g, interior, full, 0)
        return _signature(spec, b, _ds_table(b, interior), 2 * n, reference)
    if spec.id == "vc":
        raw, cap = _vc_table(b), n
    elif spec.id == "cyclepacking":
        raw, cap = _cycle_packing_table(b), n
    elif spec.id == "sct":
        raw, cap = _sct_table(b, spec.s), 3 * (t * (t - 1) // 2)
    elif spec.id in ("is", "scattered"):
        raw, ell = _scattered_table(b, spec.r if spec.params else 1)
        cap = 2 * t
    else:
        raise ValueError(f"no signature for problem '{spec.id}'")
    return _signature(spec, b, raw, cap, brute_opt(spec, g), ell)


# ---------------------------------------------------------------------------
# preprocessing for the short-cycle problem


def sct_preprocess(g: Graph, s: int) -> tuple[Graph, list[int]]:
    """Drop vertices on no cycle of length <= s, to a fixed point.

    A dropped vertex lies on no short cycle, so dropping it breaks none and
    one pass reaches the fixed point.  Returns the surviving induced subgraph
    (densely relabeled) and the removed vertices in original ids.
    """
    masks = list(g.adj_masks)
    keep = [v for v in range(g.n)
            if any(masks[v] >> u & 1 and _on_short_cycle(masks, v, u, s) for u in range(g.n))]
    out, _ = induced_subgraph(g, keep)
    return out, sorted(set(range(g.n)).difference(keep))
