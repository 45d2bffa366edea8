"""Progressive-representative search and in-place protrusion replacement."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .boundaried import BoundariedGraph, canonical_code, enumerate_boundaried, glue, split
from .errors import EnumerationBudgetExceeded
from .graph import Graph
from .problems import ProblemInstance, ProblemSpec, Signature, compute_signature

FOUND = "found"
FOUND_CACHE = "found-cache"
IRREDUCIBLE = "irreducible"
BUDGET = "budget"


def signature_key(spec: ProblemSpec, b: BoundariedGraph, sig: Signature, t: int | None) -> str:
    """Key identifying the replacement-equivalence class of b."""
    bsg = b.boundary_subgraph()
    code = canonical_code(
        BoundariedGraph(bsg, tuple(range(bsg.n)), tuple(range(1, bsg.n + 1)))
    ).hex()
    params = ",".join(map(str, spec.params))
    return f"{spec.id}[{params}]t={t}|bsg={code}|{sig.serialize()}"


def _encode_graph(b: BoundariedGraph) -> str:
    parts = [f"{b.graph.n} {b.graph.m} {len(b.labels)}"]
    parts.extend(f"{u} {v}" for u, v in sorted(b.graph.edges))
    return ";".join(parts)


def _decode_graph(text: str) -> BoundariedGraph:
    parts = text.split(";")
    n, m, nlab = (int(x) for x in parts[0].split())
    edges = [tuple(int(x) for x in p.split()) for p in parts[1:]]
    if len(edges) != m:
        raise ValueError("edge count mismatch")
    g = Graph.from_edges(n, edges)
    return BoundariedGraph(g, tuple(range(nlab)), tuple(range(1, nlab + 1)))


class RepCache:
    """File-backed map from class key to the smallest known representative.

    Records are appended as "key TAB graph TAB offset" lines.  Loading skips
    and counts lines that do not parse (for example a truncated final line)
    and never rewrites the file; a put after a torn tail starts a new line.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.data: dict[str, tuple[BoundariedGraph, int]] = {}
        self.skipped = 0  # unparsable lines seen by the load
        self._torn = False  # the file does not end in a newline
        if path and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
        self._torn = bool(raw) and not raw.endswith("\n")
        for line in raw.splitlines():
            try:
                key, enc, off = line.split("\t")
                self._remember(key, _decode_graph(enc), int(off))
            except (ValueError, IndexError):
                self.skipped += 1

    def _remember(self, key: str, bg: BoundariedGraph, offset: int) -> bool:
        cur = self.data.get(key)
        if cur is not None and cur[0].graph.n <= bg.graph.n:
            return False
        self.data[key] = (bg, offset)
        return True

    def get(self, key: str):
        return self.data.get(key)

    def put(self, key: str, bg: BoundariedGraph, offset: int):
        if self._remember(key, bg, offset) and self.path:
            record = f"{key}\t{_encode_graph(bg)}\t{offset}\n"
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("\n" + record if self._torn else record)
            self._torn = False


@dataclass
class FindResult:
    status: str  # found | found-cache | irreducible | budget
    j: BoundariedGraph | None = None
    c: int = 0


def find_replacement(
    spec: ProblemSpec,
    b: BoundariedGraph,
    cache: RepCache | None = None,
    budget: int | None = None,
    t: int | None = None,
) -> FindResult:
    """Strictly smaller graph with b's signature table and a non-larger offset.

    Cache is consulted first; otherwise candidates are enumerated in
    nondecreasing size with the boundary subgraph pinned, and the first hit
    wins. c = offset(J) - offset(B) <= 0 always.
    """
    if tuple(sorted(b.labels)) != tuple(range(1, len(b.labels) + 1)):
        raise ValueError("boundary labels must be 1..|boundary|")
    sig_b = compute_signature(spec, b, t)
    if sig_b.offset is None:
        return FindResult(IRREDUCIBLE)
    key = signature_key(spec, b, sig_b, t)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            j, off_j = hit
            if j.graph.n < b.graph.n and off_j <= sig_b.offset:
                sig_j = compute_signature(spec, j, t)
                if sig_j.same_class(sig_b) and sig_j.offset == off_j:
                    return FindResult(FOUND_CACHE, j, off_j - sig_b.offset)
    if b.graph.n - 1 < len(b.labels):
        return FindResult(IRREDUCIBLE)  # nothing smaller can carry the boundary
    bsg = b.boundary_subgraph()
    try:
        for j in enumerate_boundaried(
            b.graph.n - 1,
            len(b.labels),
            fixed_boundary_subgraph=bsg,
            budget=budget,
        ):
            sig_j = compute_signature(spec, j, t)
            if sig_j.offset is None or sig_j.offset > sig_b.offset:
                continue
            if sig_j.same_class(sig_b):
                if cache is not None:
                    cache.put(key, j, sig_j.offset)
                return FindResult(FOUND, j, sig_j.offset - sig_b.offset)
    except EnumerationBudgetExceeded:
        return FindResult(BUDGET)
    return FindResult(IRREDUCIBLE)


@dataclass
class ApplyResult:
    instance: ProblemInstance
    heir: dict[int, int]  # vertices outside the replaced set: old id -> new id


def apply_replacement(
    inst: ProblemInstance, X, j: BoundariedGraph, c: int
) -> ApplyResult:
    """Cut out X, glue j onto the remainder, and shift k by c."""
    if c > 0:
        raise ValueError("transposition constant must be nonpositive")
    sr = split(inst.graph, X)
    if j.label_set != sr.g_x.label_set:
        raise ValueError("replacement label set does not match the cut boundary")
    if j.graph.n >= sr.g_x.graph.n:
        raise ValueError("replacement is not strictly smaller")
    glued = glue(j, sr.g_r)
    heir = {
        v: glued.heir2[sr.to_r[v]]
        for v in range(inst.graph.n)
        if v in sr.to_r
    }
    out = ProblemInstance(glued.graph, inst.k + c, inst.spec)
    if out.graph.n >= inst.graph.n:
        raise AssertionError("replacement did not shrink the graph")
    return ApplyResult(out, heir)
