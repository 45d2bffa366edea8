import itertools
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protkern import problems, replace
from protkern.boundaried import BoundariedGraph, enumerate_boundaried, glue
from protkern.errors import CanonizationCapExceeded, EnumerationBudgetExceeded, OracleCapExceeded
from protkern.graph import Graph, generate, parse_family
from protkern.problems import (
    ProblemInstance,
    brute_opt,
    compute_signature,
    decide,
    get_problem,
)
from protkern.replace import (
    BUDGET,
    CACHE_HEADER,
    FOUND,
    FOUND_CACHE,
    IRREDUCIBLE,
    FindResult,
    RepCache,
    apply_replacement,
    find_replacement,
    signature_key,
)

VC = get_problem("vc")
DS = get_problem("ds")


def one_labelled(g, v=0):
    return BoundariedGraph(g, (v,), (1,))


class TestSignatureKey:
    def test_distinguishes_problems(self):
        b = one_labelled(generate(parse_family("path:3")))
        kv = signature_key(VC, b, compute_signature(VC, b), 2)
        kd = signature_key(DS, b, compute_signature(DS, b), 2)
        assert kv != kd

    def test_distinguishes_boundary_subgraph(self):
        edge = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0, 1), (1, 2))
        bare = BoundariedGraph(Graph.from_edges(2, []), (0, 1), (1, 2))
        s1 = compute_signature(VC, edge)
        s2 = compute_signature(VC, bare)
        assert signature_key(VC, edge, s1, 2) != signature_key(VC, bare, s2, 2)

    def test_stable_across_interior_relabelling(self):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(3, [(0, 2), (2, 1)])
        b1, b2 = one_labelled(g1), one_labelled(g2)
        k1 = signature_key(VC, b1, compute_signature(VC, b1), 2)
        k2 = signature_key(VC, b2, compute_signature(VC, b2), 2)
        assert k1 == k2

    # A path 0-1-2-3 with a triangle 1-2-4, cut at vertices 1 and 3.  The
    # keys name records in persisted RepCache files: a change to
    # canonical_code or to a table's serialization orphans those records.
    PINNED_WINDOW = BoundariedGraph(
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]), (1, 3), (1, 2)
    )
    PINNED_KEYS = [
        (
            "vc",
            {},
            "vc[]t=2|bsg=327c312c327c00|labels=[1, 2]|table=()=1;(1,)=0;(1, 2)=1;(2,)=2",
        ),
        (
            "ds",
            {},
            "ds[]t=2|bsg=327c312c327c00|labels=[1, 2]|table=('D', 'D')=1;('D', 'F')=1;"
            "('D', 'I')=2;('F', 'D')=1;('F', 'F')=1;('F', 'I')=2;('I', 'D')=1;"
            "('I', 'F')=0;('I', 'I')=1",
        ),
        (
            "is",
            {},
            "is[]t=2|bsg=327c312c327c00|labels=[1, 2]|table=(0, 0)=0;(0, 1)=-1;"
            "(0, 2)=-1;(1, 0)=0;(1, 1)=-1;(1, 2)=-1;(2, 0)=-2;(2, 1)=-3;(2, 2)=-3"
            "|ell=(1, 2):1",
        ),
        (
            "scattered",
            {"r": 2},
            "scattered[2]t=2|bsg=327c312c327c00|labels=[1, 2]|table=(0, 0)=0;"
            "(0, 1)=-1;(0, 2)=-1;(0, 3)=-1;(1, 0)=0;(1, 1)=-1;(1, 2)=-1;(1, 3)=-1;"
            "(2, 0)=-1;(2, 1)=-2;(2, 2)=-2;(2, 3)=-2;(3, 0)=-2;(3, 1)=-2;(3, 2)=-2;"
            "(3, 3)=-2|ell=(1, 2):2",
        ),
        (
            "cyclepacking",
            {},
            "cyclepacking[]t=2|bsg=327c312c327c00|labels=[1, 2]|table=((), ())=0;"
            "((), ((1, 2),))=-1;((1,), ())=-1;((1, 2), ())=-1;((2,), ())=0",
        ),
        (
            "sct",
            {"s": 3},
            "sct[3]t=2|bsg=327c312c327c00|labels=[1, 2]|table=(0,)=0;(1,)=0;(2,)=0;(3,)=1",
        ),
    ]

    @pytest.mark.parametrize("pid,kw,key", PINNED_KEYS, ids=[p for p, _, _ in PINNED_KEYS])
    def test_pinned_keys(self, pid, kw, key):
        spec = get_problem(pid, **kw)
        b = self.PINNED_WINDOW
        assert signature_key(spec, b, compute_signature(spec, b, 2), 2) == key

    def test_ds_radius_one_is_plain_ds(self):
        b = self.PINNED_WINDOW
        keys = {
            signature_key(spec, b, compute_signature(spec, b, 2), 2)
            for spec in (get_problem("ds"), get_problem("ds", r=1))
        }
        assert len(keys) == 1 and keys.pop().startswith("ds[]")


class TestFindReplacement:
    def test_p3_endpoint_shrinks(self):
        b = one_labelled(generate(parse_family("path:3")))
        res = find_replacement(VC, b)
        assert res.status == FOUND
        assert res.j.graph.n < 3
        assert res.c <= 0
        # contexts up to five vertices see exactly the offset shift
        sig_b = compute_signature(VC, b)
        sig_j = compute_signature(VC, res.j)
        for f in itertools.islice(enumerate_boundaried(5, 1), 80):
            lhs = brute_opt(VC, glue(res.j, f).graph)
            rhs = brute_opt(VC, glue(b, f).graph)
            assert lhs - rhs == sig_j.offset - sig_b.offset == res.c

    def test_single_vertex_irreducible(self):
        b = one_labelled(Graph.from_edges(1, []))
        assert find_replacement(VC, b).status == IRREDUCIBLE

    def test_budget_exhaustion(self):
        p6 = generate(parse_family("path:6"))
        b = BoundariedGraph(p6, (0, 5), (1, 2))
        assert find_replacement(VC, b, budget=2).status == BUDGET

    def test_rejects_gapped_labels(self):
        b = BoundariedGraph(Graph.from_edges(2, []), (0, 1), (1, 3))
        with pytest.raises(ValueError):
            find_replacement(VC, b)

    def test_nonpositive_transposition(self):
        for fam in ("path:4", "path:5", "path:6"):
            b = one_labelled(generate(parse_family(fam)))
            res = find_replacement(DS, b)
            if res.status == FOUND:
                assert res.c <= 0


def reference_find_replacement(spec, b, budget=None, t=None):
    """The enumerate-and-scan search that the table of representatives answers."""
    sig_b = compute_signature(spec, b, t)
    if sig_b.offset is None or b.graph.n - 1 < len(b.labels):
        return FindResult(IRREDUCIBLE)
    try:
        for j in enumerate_boundaried(
            b.graph.n - 1,
            len(b.labels),
            fixed_boundary_subgraph=b.boundary_subgraph(),
            budget=budget,
        ):
            sig_j = compute_signature(spec, j, t)
            if sig_j.offset is None or sig_j.offset > sig_b.offset:
                continue
            if (sig_j.label_set, sig_j.table, sig_j.ell) == (
                sig_b.label_set,
                sig_b.table,
                sig_b.ell,
            ):
                return FindResult(FOUND, j, sig_j.offset - sig_b.offset)
    except EnumerationBudgetExceeded:
        return FindResult(BUDGET)
    return FindResult(IRREDUCIBLE)


def _outcome(search, spec, b, budget, t):
    try:
        res = search(spec, b, budget=budget, t=t)
    except OracleCapExceeded as exc:
        return ("raised", str(exc))
    j = None if res.j is None else (res.j.graph.n, sorted(res.j.graph.edges), res.j.labels)
    return (res.status, j, res.c)


def _fresh_table(monkeypatch):
    monkeypatch.setattr(replace, "_CURSORS", {})
    monkeypatch.setattr(replace, "_VIEWS", {})


def _check_against_reference(monkeypatch, queries):
    """Each query answered through one shared table, then in reverse on a fresh one."""
    expected = [_outcome(reference_find_replacement, *q) for q in queries]
    for order in (range(len(queries)), reversed(range(len(queries)))):
        _fresh_table(monkeypatch)
        for i in order:
            assert _outcome(find_replacement, *queries[i]) == expected[i], queries[i]
    return expected


class TestTableMatchesScan:
    SPECS = [
        get_problem("vc"),
        get_problem("ds"),
        get_problem("is"),
        get_problem("scattered", r=2),
        get_problem("cyclepacking"),
        get_problem("sct", s=3),
    ]
    WINDOWS = [
        BoundariedGraph(generate(parse_family("path:3")), (0,), (1,)),
        BoundariedGraph(generate(parse_family("path:5")), (1,), (1,)),
        BoundariedGraph(Graph.from_edges(5, [(0, i) for i in range(1, 5)]), (0,), (1,)),
        BoundariedGraph(generate(parse_family("cycle:5")), (0, 1), (1, 2)),
        BoundariedGraph(generate(parse_family("path:6")), (0, 5), (2, 1)),
        BoundariedGraph(generate(parse_family("path:5")), (0, 1, 3, 4), (1, 3, 2, 4)),
        BoundariedGraph(
            Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]), (5,), (1,)
        ),
        BoundariedGraph(
            Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 5), (2, 6)]),
            (0, 3, 6),
            (1, 2, 3),
        ),
        BoundariedGraph(
            Graph.from_edges(
                8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7)]
            ),
            (0, 7),
            (1, 2),
        ),
        BoundariedGraph(generate(parse_family("path:8")), (0,), (1,)),
    ]

    def test_all_problems_budgets_and_widths(self, monkeypatch):
        # an unbudgeted scan of a 7- or 8-vertex window can take millions of
        # raw candidates, so those windows run with budgets only
        queries = [
            (spec, b, budget, t)
            for spec in self.SPECS
            for b in self.WINDOWS
            for budget in (1, 2, 3, 10, 200, None)
            if budget is not None or b.graph.n <= 6
            for t in (None, 1, 2)
        ]
        expected = _check_against_reference(monkeypatch, queries)
        assert {e[0] for e in expected} == {FOUND, BUDGET, IRREDUCIBLE}

    def test_candidate_over_the_oracle_cap(self, monkeypatch):
        # under an edge cap of 3 the windows pass, but sct's scan for the
        # distance-3 path meets a 4-edge candidate, raw index 20, before any
        # hit: budget 20 stops short of it and budget 21 reaches it
        monkeypatch.setattr(problems, "ORACLE_EDGE_CAP", 3)
        windows = [
            BoundariedGraph(Graph.from_edges(5, [(0, 2), (2, 3), (3, 1)]), (0, 1), (1, 2)),
            BoundariedGraph(Graph.from_edges(5, [(0, 2), (2, 1)]), (0, 1), (1, 2)),
            BoundariedGraph(Graph.from_edges(5, [(0, 2), (2, 1), (3, 4)]), (0, 1), (2, 1)),
        ]
        queries = [
            (spec, b, budget, None)
            for spec in (get_problem("cyclepacking"), get_problem("sct", s=3))
            for b in windows
            for budget in (3, 10, 20, 21, 200, None)
        ]
        expected = _check_against_reference(monkeypatch, queries)
        assert "raised" in {e[0] for e in expected}


class TestRememberedAnswers:
    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 2), (2, 3), (3, 1), (3, 4), (4, 0)],  # the window is over the cap
            [(0, 2), (2, 3), (3, 1)],  # its search meets a candidate over the cap
        ],
    )
    def test_oracle_cap_raised_again_without_a_signature(self, monkeypatch, edges):
        _fresh_table(monkeypatch)
        monkeypatch.setattr(problems, "ORACLE_EDGE_CAP", 3)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return compute_signature(*args, **kwargs)

        monkeypatch.setattr(replace, "compute_signature", counted)
        b = BoundariedGraph(Graph.from_edges(5, edges), (0, 1), (1, 2))
        sct = get_problem("sct", s=3)
        with pytest.raises(OracleCapExceeded) as first:
            find_replacement(sct, b)
        assert calls
        calls.clear()
        with pytest.raises(OracleCapExceeded) as again:
            find_replacement(sct, b)
        assert calls == [] and str(again.value) == str(first.value)

    def test_window_over_the_canonization_cap(self):
        b = one_labelled(generate(parse_family("path:11")))
        with pytest.raises(CanonizationCapExceeded):
            find_replacement(VC, b)

    def test_file_hits_are_not_remembered(self, monkeypatch, tmp_path):
        b = one_labelled(generate(parse_family("path:3")))
        path = str(tmp_path / "reps.tsv")
        find_replacement(VC, b, cache=RepCache(path))
        _fresh_table(monkeypatch)
        hit = find_replacement(VC, b, cache=RepCache(path))
        assert hit.status == FOUND_CACHE
        assert find_replacement(VC, b) == FindResult(FOUND, hit.j, hit.c)


class TestRepCache:
    def test_hit_round_trip(self, tmp_path):
        path = str(tmp_path / "reps.tsv")
        b = one_labelled(generate(parse_family("path:3")))
        first = find_replacement(VC, b, cache=RepCache(path))
        assert first.status == FOUND
        second = find_replacement(VC, b, cache=RepCache(path))
        assert second.status == FOUND_CACHE
        assert second.j.graph.edges == first.j.graph.edges
        assert second.c == first.c

    def test_keeps_smallest(self):
        cache = RepCache()
        big = one_labelled(generate(parse_family("path:3")))
        small = one_labelled(Graph.from_edges(1, []))
        cache.put("k", big, 1)
        cache.put("k", small, 0)
        cache.put("k", big, 1)  # larger entry must not clobber
        assert cache.get("k")[0].graph.n == 1

    def test_corrupt_tail_dropped(self, tmp_path):
        path = str(tmp_path / "reps.tsv")
        small = one_labelled(Graph.from_edges(1, []))
        writer = RepCache(path)
        writer.put("a", small, 0)
        with open(path, "ab") as fh:
            fh.write(b"broken \xff line without tabs\n")
        writer.put("b", small, 1)
        with open(path, "rb") as fh:
            before = fh.read()
        cache = RepCache(path)
        assert sorted(cache.data) == ["a", "b"] and cache.skipped == 1
        with open(path, "rb") as fh:
            assert fh.read() == before  # loading never rewrites the file
        # a torn tail must not swallow the next record
        with open(path, "a") as fh:
            fh.write("torn\t1 0")
        RepCache(path).put("c", small, 2)
        assert sorted(RepCache(path).data) == ["a", "b", "c"]

    def test_new_file_starts_with_version_header(self, tmp_path):
        path = tmp_path / "reps.tsv"
        small = one_labelled(Graph.from_edges(1, []))
        RepCache(str(path)).put("a", small, 0)
        header, record = path.read_text().splitlines()
        assert header == CACHE_HEADER and record.startswith("a\t")
        cache = RepCache(str(path))
        assert sorted(cache.data) == ["a"] and cache.skipped == 0

    def test_other_version_fails_loudly(self, tmp_path):
        path = tmp_path / "reps.tsv"
        path.write_text("#protkern-repcache 0\na\t1 0 1\t0\n")
        with pytest.raises(ValueError, match="not in format"):
            RepCache(str(path))

    def test_headerless_file_loads_and_stays_headerless(self, tmp_path):
        path = tmp_path / "reps.tsv"
        path.write_text("a\t1 0 1\t0\n")
        cache = RepCache(str(path))
        assert sorted(cache.data) == ["a"] and cache.skipped == 0
        cache.put("b", one_labelled(Graph.from_edges(1, [])), 1)
        assert path.read_text() == "a\t1 0 1\t0\nb\t1 0 1\t1\n"

    # a record: unique key, small boundaried graph, offset
    RECORD = st.tuples(
        st.text("abcxyz|=[]; \u00e9\u2028\x0b\r", min_size=1, max_size=8),
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))),
                st.integers(0, n),
            )
        ),
        st.integers(-3, 3),
    )
    # a bad line: anything without a newline that cannot split into three
    # fields, or three fields whose graph has no digits
    BAD = st.one_of(
        st.binary(max_size=24).filter(
            lambda b: b"\n" not in b and b.count(b"\t") != 2 and not b.startswith(b"#")
        ),
        st.text("ab;x ", max_size=6).map(lambda g: f"k\t{g}\t0".encode()),
    )

    @settings(max_examples=80, deadline=None)
    @given(
        items=st.lists(st.one_of(RECORD.map(lambda r: ("rec", r)), BAD.map(lambda b: ("bad", b)))),
        header=st.booleans(),
        tail=st.binary(max_size=12).filter(lambda b: b"\n" not in b),
    )
    def test_fuzzed_file(self, items, header, tail):
        lines, records, bad = [], {}, 0
        if header:
            lines.append(CACHE_HEADER.encode())
        for kind, item in items:
            if kind == "bad":
                lines.append(item)
                bad += 1
                continue
            key, (n, pairs, nlab), off = item
            key = "k" + key  # never a header
            if key in records:
                continue
            g = Graph.from_edges(n, [(u, v) for u, v in pairs if u != v])
            records[key] = (g, off)
            edges = ";".join(f"{u} {v}" for u, v in sorted(g.edges))
            lines.append(f"{key}\t{n} {g.m} {nlab}{';' if edges else ''}{edges}\t{off}".encode())
        content = b"".join(line + b"\n" for line in lines) + tail
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "reps.tsv")
            with open(path, "wb") as fh:
                fh.write(content)
            cache = RepCache(path)
            assert {k: (bg.graph, off) for k, (bg, off) in cache.data.items()} == records
            assert cache.skipped == bad + (tail != b"")
            with open(path, "rb") as fh:
                assert fh.read() == content  # loading never rewrites the file
            extra = one_labelled(generate(parse_family("path:2")))
            cache.put("late", extra, 2)
            again = RepCache(path)
            assert again.get("late")[0].graph == extra.graph and again.get("late")[1] == 2
            assert {k: again.data[k][0].graph for k in records} == {
                k: g for k, (g, _) in records.items()
            }
            assert again.skipped == cache.skipped

    def test_stale_entry_revalidated(self, tmp_path):
        path = str(tmp_path / "reps.tsv")
        b = one_labelled(generate(parse_family("path:3")))
        res = find_replacement(VC, b, cache=RepCache(path))
        key = signature_key(VC, b, compute_signature(VC, b), None)
        # poison the cache with a wrong graph under the right key
        with open(path, "w") as fh:
            fh.write(f"{key}\t2 1 1;0 1\t0\n")
        redo = find_replacement(VC, b, cache=RepCache(path))
        assert redo.status == FOUND  # re-derived, not trusted


class TestApplyReplacement:
    def test_path_tail(self):
        inst = ProblemInstance(generate(parse_family("path:8")), 3, VC)
        X = frozenset({0, 1, 2})  # boundary vertex 2
        b = BoundariedGraph(
            Graph.from_edges(3, [(0, 1), (1, 2)]), (2,), (1,)
        )
        res = find_replacement(VC, b)
        assert res.status == FOUND
        out = apply_replacement(inst, X, res.j, res.c)
        assert out.instance.graph.n == 8 - (3 - res.j.graph.n)
        assert decide(out.instance) == decide(inst)
        # boundary vertex 2 survives the cut, so it has an heir too
        assert set(out.heir) == {2, 3, 4, 5, 6, 7}

    def test_rejects_positive_c(self):
        inst = ProblemInstance(generate(parse_family("path:4")), 1, VC)
        j = one_labelled(Graph.from_edges(1, []))
        with pytest.raises(ValueError):
            apply_replacement(inst, frozenset({0, 1}), j, 1)

    def test_rejects_label_mismatch(self):
        inst = ProblemInstance(generate(parse_family("path:6")), 1, VC)
        j = BoundariedGraph(Graph.from_edges(1, []), (0,), (2,))
        with pytest.raises(ValueError):
            apply_replacement(inst, frozenset({0, 1, 2}), j, 0)

    def test_rejects_nonshrinking(self):
        inst = ProblemInstance(generate(parse_family("path:6")), 1, VC)
        j = one_labelled(generate(parse_family("path:3")), 2)
        with pytest.raises(ValueError):
            apply_replacement(inst, frozenset({0, 1, 2}), j, 0)


class TestEndToEndSoundness:
    @pytest.mark.parametrize("pid", ["vc", "ds", "is"])
    @pytest.mark.parametrize("fam", ["path:9", "star-of-paths:3,3", "cycle:9"])
    def test_decision_preserved(self, pid, fam):
        spec = get_problem(pid)
        g = generate(parse_family(fam))
        prefix = frozenset(range(6)) if fam != "cycle:9" else frozenset(range(1, 7))
        from protkern.boundaried import split

        sr = split(g, prefix)
        res = find_replacement(spec, sr.g_x)
        if res.status != FOUND:
            pytest.skip("window irreducible for this problem")
        for k in range(g.n + 1):
            inst = ProblemInstance(g, k, spec)
            out = apply_replacement(inst, prefix, res.j, res.c).instance
            assert decide(out) == decide(inst)
