"""Span tracing of protkern's layers, installed from outside the package.

The engine imports its helpers with ``from .x import f``, so a call looks the
name up in the calling module's namespace.  ``Tracer.install`` therefore
replaces every reference to a traced function in every loaded ``protkern``
module, and ``uninstall`` puts the originals back.

Each call to ``engine.meta_kernelize`` opens a new trace id.  Every wrapped
call records one span (name, trace id, parent span, start, end, outcome).  A
generator function records one span per ``next()``.  Spans are kept in flat
in-memory arrays and written out once, after the measurement.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

# (module, function): the entry point of each layer of the engine loop.  The
# per-problem signature functions stay inside compute_signature, and the
# private ``_candidate_sets`` stays inside the engine's self time.
TRACED = (
    ("engine", "meta_kernelize"),
    ("graph", "induced_subgraph"),
    ("graph", "connected_components"),
    ("graph", "articulation_points"),
    ("graph", "distances_from"),
    ("treewidth", "decide_tw_leq"),
    ("treewidth", "make_nice"),
    ("protrusion", "compute_xr"),
    ("protrusion", "split_protrusion"),
    ("boundaried", "split"),
    ("boundaried", "glue"),
    ("boundaried", "canonical_code"),
    ("boundaried", "enumerate_boundaried"),
    ("problems", "compute_signature"),
    ("problems", "brute_opt"),
    ("problems", "sct_preprocess"),
    ("replace", "find_replacement"),
    ("replace", "apply_replacement"),
)
ROOT = "engine.meta_kernelize"

# Span outcomes.  "none": returned None, which for decide_tw_leq means
# treewidth above t.  "cap_skip": raised TooLargeForExactTreewidth.  The last
# four are the FindResult statuses of find_replacement.
OUTCOMES = ("ok", "none", "raised", "cap_skip", "found", "found-cache", "irreducible", "budget")
OK, NONE, RAISED, CAP_SKIP = range(4)
STATUS_OUTCOME = {status: i for i, status in enumerate(OUTCOMES) if i > CAP_SKIP}


class Tracer:
    """In-memory span recorder for the functions in ``TRACED``."""

    def __init__(self):
        self.names = [f"{mod}.{fn}" for mod, fn in TRACED]
        self._id = {name: i for i, name in enumerate(self.names)}
        self._patches: list[tuple[object, str, object]] = []
        self.span_name = array("i")
        self.span_trace = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_outcome = array("b")
        self._stack: list[int] = []
        self._next_trace = 0
        self.yields = 0
        self.signature_repeats = 0
        self._signatures_seen: set = set()

    def begin_pass(self):
        """Count compute_signature repeats within one pass over the batch."""
        self._signatures_seen.clear()

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.span_name)
        if self._stack:
            parent = self._stack[-1]
            trace = self.span_trace[parent]
        else:
            parent = -1
            trace = self._next_trace
            self._next_trace += 1
        self.span_name.append(name_id)
        self.span_trace.append(trace)
        self.span_parent.append(parent)
        self.span_end.append(0)
        self.span_outcome.append(OK)
        self._stack.append(sid)
        self.span_start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int, outcome: int):
        self.span_end[sid] = perf_counter_ns()
        self.span_outcome[sid] = outcome
        self._stack.pop()

    def _wrap(self, name: str, fn, cap_error: type):
        name_id = self._id[name]
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = tracer._open(name_id)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(sid, OK)
                        return
                    except BaseException:
                        tracer._close(sid, RAISED)
                        raise
                    tracer._close(sid, OK)
                    tracer.yields += 1
                    yield item

            return traced_gen

        count_repeats = name == "problems.compute_signature"

        def traced(*args, **kwargs):
            if count_repeats:
                # exact identity of the call: spec, boundaried graph and t
                b = args[1]
                key = (args[0], b.graph.edges, b.graph.n, b.boundary, b.labels,
                       args[2:], tuple(kwargs.items()))
                if key in tracer._signatures_seen:
                    tracer.signature_repeats += 1
                else:
                    tracer._signatures_seen.add(key)
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except cap_error:
                tracer._close(sid, CAP_SKIP)
                raise
            except BaseException:
                tracer._close(sid, RAISED)
                raise
            if result is None:
                tracer._close(sid, NONE)
            else:
                tracer._close(sid, STATUS_OUTCOME.get(getattr(result, "status", None), OK))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        """Replace each traced function wherever a protkern module refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "protkern" or key.startswith("protkern."))
        ]
        cap_error = sys.modules["protkern.errors"].TooLargeForExactTreewidth
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            original = getattr(sys.modules[f"protkern.{mod}"], fn)
            wrapper = self._wrap(name, original, cap_error)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Totals over every recorded span.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap, since the engine runs
        on one thread.
        """
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                own[p] -= dur[i]
        calls = Counter()
        self_ns = Counter()
        outcomes = Counter()
        root = self._id[ROOT]
        xr = self._id["protrusion.compute_xr"]
        cutsets = 0
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_ns[nid] += own[i]
            outcomes[nid, self.span_outcome[i]] += 1
            p = self.span_parent[i]
            if nid == xr and p >= 0 and self.span_name[p] == root:
                cutsets += 1
        return {
            "calls": {name: calls[i] for i, name in enumerate(self.names)},
            "self_s": {name: self_ns[i] / 1e9 for i, name in enumerate(self.names)},
            "outcomes": {
                name: Counter({o: outcomes[i, k] for k, o in enumerate(OUTCOMES)})
                for i, name in enumerate(self.names)
            },
            "yields": self.yields,
            "cutsets": cutsets,
            "signature_repeats": self.signature_repeats,
            "spans": n,
        }

    def write_tsv(self, path):
        """All spans, one per line: trace, span, parent, name, start_ns, end_ns, outcome."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("trace\tspan\tparent\tname\tstart_ns\tend_ns\toutcome\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_trace[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]}\t"
                    f"{self.span_end[i]}\t{OUTCOMES[self.span_outcome[i]]}\n"
                )
