"""The kernelization driver loop and verification harness."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .boundaried import split, window_key
from .errors import CanonizationCapExceeded, OracleCapExceeded
from .graph import Graph, articulation_points, distances_from
from .problems import MAX, ProblemInstance, ProblemSpec, decide, sct_preprocess
from .protrusion import compute_xr, xr_window
from .replace import BUDGET, FOUND, RepCache, apply_replacement, find_replacement, known_answer

EXHAUSTIVE_SCAN_LIMIT = 64  # above this, candidate cut sets are heuristic
SPLIT_C = 5  # windows have SPLIT_C + 1 to 2 * SPLIT_C vertices
ENUM_BUDGET = 20000  # raw candidates a replacement search may enumerate


@dataclass
class EngineConfig:
    t: int  # protrusion width; cut sets have at most 2t vertices
    size_threshold: int | None = None  # defaults to 4*SPLIT_C + 2*(2t+1)
    cache_path: str | None = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if self.size_threshold is None:
            self.size_threshold = 4 * SPLIT_C + 2 * (2 * self.t + 1)
        if self.size_threshold <= 2 * SPLIT_C:
            raise ValueError("size_threshold must exceed twice the split target")


@dataclass
class ReductionLog:
    steps: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# trivial instances, validated once against the oracle


def trivial_instance(spec: ProblemSpec) -> ProblemInstance:
    """Canonical fixed-answer instance: NO for minimization, YES for maximization."""
    if spec.direction == MAX:
        inst = ProblemInstance(Graph.from_edges(1, []), 0, spec)
        if decide(inst) is not True:
            raise AssertionError("the trivial maximization instance must be YES")
        return inst
    if spec.id == "sct":
        g = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    else:
        g = Graph.from_edges(2, [(0, 1)])
    inst = ProblemInstance(g, 0, spec)
    if decide(inst) is not False:
        raise AssertionError("the trivial minimization instance must be NO")
    return inst


# ---------------------------------------------------------------------------
# candidate cut sets


def _candidate_sets(g: Graph, r: int):
    if g.n <= EXHAUSTIVE_SCAN_LIMIT:
        for size in range(1, r + 1):
            yield from itertools.combinations(range(g.n), size)
        return
    # large graphs: articulation points and nearby pairs of them only
    arts = articulation_points(g)
    for v in arts:
        yield (v,)
    limit = 2 * SPLIT_C
    for i, a in enumerate(arts):
        dist = distances_from(g, [a])
        for b in arts[i + 1 :]:
            if dist[b] <= limit:
                yield (a, b)


# ---------------------------------------------------------------------------
# the driver loop


def meta_kernelize(inst: ProblemInstance, cfg: EngineConfig):
    log = ReductionLog()
    spec = inst.spec
    if spec.id == "sct":
        g2, removed = sct_preprocess(inst.graph, spec.s)
        if removed:
            log.warnings.append(
                f"preprocessing removed {len(removed)} vertices on no short cycle"
            )
            inst = ProblemInstance(g2, inst.k, spec)
    if inst.k >= 0 and inst.graph.n <= inst.k:
        return inst, log

    cache = RepCache(cfg.cache_path) if cfg.cache_path else None
    if inst.k >= 0 and inst.graph.n < cfg.size_threshold:
        return inst, log  # as the loop's first test would, before its state is built
    warned: set[str] = set()

    def warn(text: str):
        if text not in warned:
            warned.add(text)
            log.warnings.append(text)

    while True:
        if inst.k < 0:
            return trivial_instance(spec), log
        # X_R lies in V, so no cut set of a graph under the threshold can fire
        if inst.graph.n <= max(inst.k, 0) or inst.graph.n < cfg.size_threshold:
            return inst, log
        fired = False
        for R in _candidate_sets(inst.graph, 2 * cfg.t):
            Rset = frozenset(R)
            xr = compute_xr(inst.graph, Rset, min_size=cfg.size_threshold)
            for w in xr.warnings:
                warn(w)
            if len(xr.X) < cfg.size_threshold:
                continue
            y = xr_window(inst.graph, Rset, xr, SPLIT_C)
            if y is None:
                continue
            # a window the table has met is answered from its masks, unbuilt
            key = window_key(inst.graph, y)
            try:
                res = known_answer(spec, key, cache, ENUM_BUDGET, cfg.t)
                if res is None:
                    b = split(inst.graph, y)
                    res = find_replacement(spec, b, cache=cache, budget=ENUM_BUDGET, t=cfg.t)
            except (CanonizationCapExceeded, OracleCapExceeded):
                continue
            if res.status == FOUND:
                before, ids = inst, sorted(y)
                inst = apply_replacement(inst, y, tuple(ids[i] for i in key[1]), res.j, res.c)
                log.steps.append(
                    {
                        "R": sorted(Rset),
                        "xr_size": len(xr.X),
                        "Y": ids,
                        "replacement": {"n": res.j.graph.n, "m": res.j.graph.m},
                        "c": res.c,
                        "n_before": before.graph.n,
                        "n_after": inst.graph.n,
                        "k_before": before.k,
                        "k_after": inst.k,
                    }
                )
                fired = True
                break
            if res.status == BUDGET:
                warn(f"replacement search for a {len(y)}-vertex window hit the budget")
        if not fired:
            return inst, log


# ---------------------------------------------------------------------------
# verification


def verify_kernel(original: ProblemInstance, kernel: ProblemInstance) -> dict:
    """Oracle decisions on both instances plus an agreement flag."""
    report = {"original": None, "kernel": None, "agreement": None, "note": ""}
    try:
        a = decide(original)
        b = decide(kernel)
    except OracleCapExceeded:
        report["note"] = "unverifiable at this size"
        return report
    report["original"] = "YES" if a else "NO"
    report["kernel"] = "YES" if b else "NO"
    report["agreement"] = a == b
    return report

