"""Progressive-representative search and in-place protrusion replacement."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

from .boundaried import BoundariedGraph, ClassCursor, canonical_code, edge_mask, from_mask, splice
from .errors import OracleCapExceeded
from .graph import Graph
from .problems import ProblemInstance, ProblemSpec, compute_signature

FOUND = "found"
IRREDUCIBLE = "irreducible"
BUDGET = "budget"


CACHE_HEADER = "#protkern-repcache 2"  # bump when canonical_code, a table or the records change
# numbers are bounded because int() refuses very long digit strings
_ANSWER = re.compile(r"found [0-9]{1,18} [0-9]{1,18} -?[0-9]{1,18}|irreducible|budget|cap .+", re.ASCII)


class RepCache:
    """File journal of the table of representatives' answers.

    A record is one line: the key fields "id[params]", t, the boundary
    subgraph as "n edge_mask", the window's canonical code in hex and the
    budget, then the answer, all separated by tabs.  The answer is
    "found n edge_mask c", "irreducible", "budget" or "cap <message>".  A new
    file starts with CACHE_HEADER; a non-empty file that does not is refused
    with ValueError.  Loading skips and counts lines that do not parse and a
    torn final line with no newline, keeps the last record of a key, and never
    rewrites the file.  Each record is one O_APPEND write, after a newline if
    the file is torn.  A file answer that passed its check is kept in
    `checked` for the cache's lifetime, one kernelization in the engine.
    """

    def __init__(self, path: str):
        self.path = path
        self.data: dict[str, str] = {}  # key -> answer
        self.skipped = 0  # unparsable lines seen by the load
        self.checked: dict = {}  # key -> file answer that passed _from_file
        if os.path.exists(path):
            self._load()

    def _load(self):
        with open(self.path, "rb") as fh:
            text = fh.read().decode("utf-8", errors="replace")
        lines = text.split("\n")
        if text and lines[0] != CACHE_HEADER:
            raise ValueError(f"replacement cache {self.path} is not in format {CACHE_HEADER!r}")
        self.skipped += lines.pop() != ""  # a torn last line
        for line in lines[1:]:
            key, _, answer = line.rpartition("\t")
            if key.count("\t") == 4 and _ANSWER.fullmatch(answer):
                self.data[key] = answer
            else:
                self.skipped += 1

    def put(self, key: str, answer: str):
        """Append the record, unless it is already the key's last one."""
        if self.data.get(key) == answer:
            return
        record = f"{key}\t{answer}\n"
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            size = os.fstat(fd).st_size
            if size == 0:
                record = f"{CACHE_HEADER}\n{record}"
            elif os.pread(fd, 1, size - 1) != b"\n":
                record = "\n" + record  # the file is torn
            os.write(fd, record.encode())
        finally:
            os.close(fd)
        self.data[key] = answer


@dataclass(frozen=True)
class FindResult:
    status: str  # found | irreducible | budget
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
# shared by every problem, one view per (spec, t) and boundary subgraph on it,
# and the canonical code of each raw window met.  It lives for the process, so
# later kernelizations reuse the classes, signatures, codes and window answers
# earlier ones took.  Not thread-safe.
_CURSORS: dict[tuple[int, frozenset], ClassCursor] = {}
_VIEWS: dict[tuple, _View] = {}  # (spec, t, |B|, edge_mask(bsg)) -> view
# raw window (adjacency masks, boundary in label order) -> (canonical code,
# vertex count and edge_mask of its boundary subgraph)
_CODES: dict[tuple, tuple[bytes, int, int]] = {}


def _search(spec: ProblemSpec, t, view: _View, b: BoundariedGraph, bsg: Graph, budget):
    """The table's answer for window b: the first enumerated candidate with
    fewer vertices, boundary subgraph bsg, b's class and an offset no larger,
    or the message of an OracleCapExceeded met on the way.  The budget counts
    raw candidates as enumerate_boundaried does."""
    try:
        sig_b = compute_signature(spec, b, t)
    except OracleCapExceeded as exc:
        return str(exc)
    if b.graph.n - 1 < len(b.labels):
        return FindResult(IRREDUCIBLE)  # nothing smaller carries the boundary
    where = (bsg.n, bsg.edges)
    cursor = _CURSORS.get(where) or _CURSORS.setdefault(where, ClassCursor(bsg))
    total = cursor.raw_count(b.graph.n - 1)
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
        return view.cap[1]
    return FindResult(BUDGET if budget is not None and total > budget else IRREDUCIBLE)


def _text(answer) -> str:
    if isinstance(answer, str):
        return f"cap {answer}"
    if answer.status == FOUND:
        return f"{FOUND} {answer.j.graph.n} {edge_mask(answer.j.graph)} {answer.c}"
    return answer.status


def _from_file(spec: ProblemSpec, t, b: BoundariedGraph, bsg: Graph, text: str | None):
    """A file's answer for window b, None if it has none or an untrusted one.

    A found graph j is trusted only if it has fewer vertices than b, b's
    labels and boundary subgraph bsg, b's signature class and c = offset(j) -
    offset(b) <= 0."""
    if text is None:
        return None
    kind, _, rest = text.partition(" ")
    if kind == "cap":
        return rest
    if kind != FOUND:
        return FindResult(kind) if kind in (IRREDUCIBLE, BUDGET) else None
    n, mask, c = map(int, rest.split())
    if not len(b.labels) <= n < b.graph.n or c > 0:
        return None
    j = from_mask(n, mask, len(b.labels))
    if j.boundary_subgraph().edges != bsg.edges:
        return None
    try:
        sig_b, sig_j = compute_signature(spec, b, t), compute_signature(spec, j, t)
    except OracleCapExceeded:
        return None
    if not sig_j.same_class(sig_b):
        return None
    return FindResult(FOUND, j, c) if c == sig_j.offset - sig_b.offset else None


def _record(spec: ProblemSpec, t, nb: int, bmask: int, code: bytes, budget) -> str:
    """The cache file key of a window with code `code` and a boundary
    subgraph of nb vertices and edge mask bmask."""
    return f"{spec.id}[{','.join(map(str, spec.params))}]\t{t}\t{nb} {bmask}\t{code.hex()}\t{budget}"


def known_answer(spec: ProblemSpec, key: tuple, cache: RepCache | None, budget, t) -> FindResult | None:
    """find_replacement's answer for the raw window with key `key` (see
    boundaried.window_key), or None if the table cannot give it without the
    window: when it has not met the window, or has not answered it for (spec,
    t, budget) and the cache has not checked a file answer for it.  A
    remembered answer is appended to the cache file as find_replacement
    appends it, and a remembered OracleCapExceeded is raised again."""
    entry = _CODES.get(key)
    if entry is None:
        return None
    code, nb, bmask = entry
    view = _VIEWS.get((spec, t, nb, bmask))
    known = None if view is None else view.answers.get((code, budget))
    if cache is not None:
        record = _record(spec, t, nb, bmask, code, budget)
        if known is None:
            known = cache.checked.get(record)  # a file answer is not appended
        else:
            cache.put(record, _text(known))
    if isinstance(known, str):
        raise OracleCapExceeded(known)
    return known


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
    OracleCapExceeded is remembered and raised again.  The table also keeps
    each raw window's code under its adjacency masks and boundary in label
    order, so a window met again is not canonized, and known_answer answers it
    without the window.  A window the table has not answered is looked up in
    the cache file before it is searched; file answers are checked (see
    _from_file) once per cache and never copied into the table, and each
    answer of the table is appended to the file once, so a file written here
    changes no kernel.  c = offset(J) - offset(B) <= 0 always.  Raises
    CanonizationCapExceeded for b over CANONIZATION_CAP vertices.
    """
    if tuple(sorted(b.labels)) != tuple(range(1, len(b.labels) + 1)):
        raise ValueError("boundary labels must be 1..|boundary|")
    key = (b.graph.adj_masks, tuple(v for _, v in sorted(zip(b.labels, b.boundary))))
    bsg = b.boundary_subgraph()
    if key not in _CODES:
        _CODES[key] = (canonical_code(b), bsg.n, edge_mask(bsg))
    known = known_answer(spec, key, cache, budget, t)
    if known is not None:
        return known
    code, nb, bmask = _CODES[key]
    at = (spec, t, nb, bmask)
    view = _VIEWS.get(at) or _VIEWS.setdefault(at, _View())
    record = None if cache is None else _record(spec, t, nb, bmask, code, budget)
    if record is not None:
        known = _from_file(spec, t, b, bsg, cache.data.get(record))
        if known is not None:
            cache.checked[record] = known
            record = None  # a file answer is neither kept in the table nor appended
    if known is None:
        known = view.answers[code, budget] = _search(spec, t, view, b, bsg, budget)
    if record is not None:
        cache.put(record, _text(known))
    if isinstance(known, str):
        raise OracleCapExceeded(known)
    return known


def apply_replacement(
    inst: ProblemInstance, X, bd: tuple[int, ...], j: BoundariedGraph, c: int
) -> ProblemInstance:
    """Splice j into inst.graph in place of G[X], bd being bd(X) in ascending
    order (see splice), and shift k by c."""
    if c > 0:
        raise ValueError("transposition constant must be nonpositive")
    if j.label_set != frozenset(range(1, len(bd) + 1)):
        raise ValueError("replacement label set does not match the cut boundary")
    if j.graph.n >= len(X):
        raise ValueError("replacement is not strictly smaller")
    out = ProblemInstance(splice(inst.graph, X, bd, j), inst.k + c, inst.spec)
    if out.graph.n >= inst.graph.n:
        raise AssertionError("replacement did not shrink the graph")
    return out
