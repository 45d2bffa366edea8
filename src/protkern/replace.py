"""Progressive-representative search and in-place protrusion replacement."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .boundaried import BoundariedGraph, ClassCursor, canonical_code, glue, split
from .errors import OracleCapExceeded
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


CACHE_HEADER = "#protkern-repcache 1"  # bump when signature_key or the records change


class RepCache:
    """File-backed map from class key to the smallest known representative.

    A new file starts with CACHE_HEADER; another version's header raises
    ValueError, and a headerless file loads as this version.  Records are
    appended as "key TAB graph TAB offset" lines.  Loading skips and counts
    lines that do not parse and a torn final line with no newline, and never
    rewrites the file; a put after a torn tail starts a new line.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.data: dict[str, tuple[BoundariedGraph, int]] = {}
        self.skipped = 0  # unparsable lines seen by the load
        self._torn = False  # the file does not end in a newline
        if path and os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, encoding="utf-8", errors="replace", newline="") as fh:
            lines = fh.read().split("\n")
        self._torn = lines.pop() != ""
        self.skipped += self._torn
        if lines and lines[0].startswith(CACHE_HEADER.split()[0]):
            if lines.pop(0).strip() != CACHE_HEADER:
                raise ValueError(f"replacement cache {self.path} is not in format {CACHE_HEADER!r}")
        for line in lines:
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
                if fh.tell() == 0:
                    record = f"{CACHE_HEADER}\n{record}"
                elif self._torn:
                    record = "\n" + record
                fh.write(record)
            self._torn = False


@dataclass(frozen=True)
class FindResult:
    status: str  # found | found-cache | irreducible | budget
    j: BoundariedGraph | None = None
    c: int = 0


@dataclass
class _View:
    """One (spec, t)'s signatures over a class cursor, taken in class order."""

    pos: int = 0  # classes taken
    # class key -> (offset, class index) of each class member whose offset is
    # below that of every earlier member, in class order
    kept: dict = field(default_factory=dict)
    states: dict = field(default_factory=dict)  # one shared tuple per table state list
    cap: tuple[int, str] | None = None  # raw index and message of an OracleCapExceeded
    # (window code, budget) -> the table's FindResult, or an OracleCapExceeded message
    answers: dict = field(default_factory=dict)


# The table of representatives: one class cursor per (|B|, boundary subgraph),
# shared by every problem, and one view per (spec, t) on it.  It lives for the
# process, so later kernelizations reuse the classes, signatures and window
# answers earlier ones took.  Not thread-safe, like RepCache.
_CURSORS: dict[tuple[int, frozenset], ClassCursor] = {}
_VIEWS: dict[tuple, _View] = {}


def _search(spec: ProblemSpec, t, view: _View, bsg: Graph, n: int, sig_b: Signature, budget) -> FindResult:
    """From the table, the first enumerated candidate with fewer than n
    vertices, boundary subgraph bsg, sig_b's class and an offset no larger.
    The budget counts raw candidates as enumerate_boundaried does; an
    OracleCapExceeded met on the way is raised."""
    where = (bsg.n, bsg.edges)
    cursor = _CURSORS.get(where) or _CURSORS.setdefault(where, ClassCursor(bsg))
    total = cursor.raw_count(n - 1)
    limit = total if budget is None else min(budget, total)
    want = sig_b.class_key()
    hit = next(((off, i) for off, i in view.kept.get(want, ()) if off <= sig_b.offset), None)
    while hit is None and view.cap is None:
        if view.pos == len(cursor.classes) and not cursor.advance(limit):
            break
        raw = cursor.classes[view.pos][0]
        if raw >= limit:
            break
        try:
            sig = compute_signature(spec, cursor.graph(view.pos), t)
        except OracleCapExceeded as exc:
            view.cap = (raw, str(exc))
            break
        view.pos += 1
        if sig.offset is None:
            continue
        label_set, states, values, ell = sig.class_key()
        key = (label_set, view.states.setdefault(states, states), values, ell)
        kept = view.kept.setdefault(key, [])
        if not kept or sig.offset < kept[-1][0]:
            kept.append((sig.offset, view.pos - 1))
            if key == want and sig.offset <= sig_b.offset:
                hit = kept[-1]
    if hit is not None and cursor.classes[hit[1]][0] < limit:
        return FindResult(FOUND, cursor.graph(hit[1]), hit[0] - sig_b.offset)
    if view.cap is not None and view.cap[0] < limit:
        raise OracleCapExceeded(view.cap[1])
    return FindResult(BUDGET if budget is not None and total > budget else IRREDUCIBLE)


def find_replacement(
    spec: ProblemSpec,
    b: BoundariedGraph,
    cache: RepCache | None = None,
    budget: int | None = None,
    t: int | None = None,
) -> FindResult:
    """Strictly smaller graph with b's signature table and a non-larger offset.

    The answer is the first hit of the smallest-first enumeration with the
    boundary subgraph pinned, taken from the process-wide table of
    representatives, which remembers it per (canonical code of b, budget); an
    OracleCapExceeded is remembered and raised again.  A cache is consulted
    before the table, except for a remembered IRREDUCIBLE, BUDGET or oracle
    cap; its hits are not remembered.  c = offset(J) - offset(B) <= 0 always.
    Raises CanonizationCapExceeded for b over CANONIZATION_CAP vertices.
    """
    if tuple(sorted(b.labels)) != tuple(range(1, len(b.labels) + 1)):
        raise ValueError("boundary labels must be 1..|boundary|")
    ask = (canonical_code(b), budget)
    bsg = b.boundary_subgraph()
    at = (spec, t, bsg.n, bsg.edges)
    view = _VIEWS.get(at) or _VIEWS.setdefault(at, _View())
    known = view.answers.get(ask)
    if isinstance(known, str):
        raise OracleCapExceeded(known)
    if known is not None and (cache is None or known.status != FOUND):
        return known
    try:
        sig_b = compute_signature(spec, b, t)
    except OracleCapExceeded as exc:
        view.answers[ask] = str(exc)
        raise
    if cache is not None and sig_b.offset is not None:
        key = signature_key(spec, b, sig_b, t)
        hit = cache.get(key)
        if hit is not None:
            j, off_j = hit
            if j.graph.n < b.graph.n and off_j <= sig_b.offset:
                sig_j = compute_signature(spec, j, t)
                if sig_j.same_class(sig_b) and sig_j.offset == off_j:
                    return FindResult(FOUND_CACHE, j, off_j - sig_b.offset)
    if sig_b.offset is None or b.graph.n - 1 < len(b.labels):
        res = FindResult(IRREDUCIBLE)  # no class, or nothing smaller carries the boundary
    else:
        try:
            res = _search(spec, t, view, bsg, b.graph.n, sig_b, budget)
        except OracleCapExceeded as exc:
            view.answers[ask] = str(exc)
            raise
    view.answers[ask] = res
    if res.status == FOUND and cache is not None:
        cache.put(key, res.j, sig_b.offset + res.c)
    return res


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
