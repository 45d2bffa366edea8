import fcntl
import itertools
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from protkern import boundaried, problems, replace
from protkern.boundaried import BoundariedGraph, boundary_of, enumerate_boundaried, glue, split
from protkern.errors import CanonizationCapExceeded, OracleCapExceeded
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
    IRREDUCIBLE,
    FindResult,
    RepCache,
    apply_replacement,
    find_replacement,
)

VC = get_problem("vc")
DS = get_problem("ds")


def one_labelled(g, v=0):
    return BoundariedGraph(g, (v,), (1,))


def record_of(monkeypatch, tmp_path, spec, b):
    """The key and answer a fresh table records for window b at t = 2."""
    monkeypatch.setattr(replace, "TABLE", replace.Table())
    cache = RepCache(str(tmp_path / f"{len(list(tmp_path.iterdir()))}.tsv"))
    find_replacement(spec, b, cache=cache, t=2)
    [record] = cache.data.items()
    return record


class TestSignatureKey:
    """The keys of the cache file's records."""

    def test_distinguishes_problems(self, monkeypatch, tmp_path):
        b = one_labelled(generate(parse_family("path:3")))
        kv, _ = record_of(monkeypatch, tmp_path, VC, b)
        kd, _ = record_of(monkeypatch, tmp_path, DS, b)
        assert kv != kd

    def test_distinguishes_boundary_subgraph(self, monkeypatch, tmp_path):
        edge = BoundariedGraph(Graph.from_edges(2, [(0, 1)]), (0, 1), (1, 2))
        bare = BoundariedGraph(Graph.from_edges(2, []), (0, 1), (1, 2))
        k1, _ = record_of(monkeypatch, tmp_path, VC, edge)
        k2, _ = record_of(monkeypatch, tmp_path, VC, bare)
        assert k1.split("\t")[2] != k2.split("\t")[2]

    def test_stable_across_interior_relabelling(self, monkeypatch, tmp_path):
        g1 = Graph.from_edges(3, [(0, 1), (1, 2)])
        g2 = Graph.from_edges(3, [(0, 2), (2, 1)])
        r1 = record_of(monkeypatch, tmp_path, VC, one_labelled(g1))
        r2 = record_of(monkeypatch, tmp_path, VC, one_labelled(g2))
        assert r1 == r2

    # A path 0-1-2-3 with a triangle 1-2-4, cut at vertices 1 and 3.  The
    # record lines persist in cache files, and each table's class key decides
    # which window a found record may replace: a change to canonical_code, to
    # a table or to the record layout must show here.
    PINNED_WINDOW = BoundariedGraph(
        Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)]), (1, 3), (1, 2)
    )
    KEY = "2\t2 0\t357c312c327c01c9\tNone"  # t, boundary subgraph, code, budget
    PINNED_RECORDS = [
        (
            "vc",
            {},
            f"vc[]\t{KEY}\tfound 4 10 -1",
            (frozenset({1, 2}), ((), (1,), (1, 2), (2,)), (1, 0, 1, 2), None),
        ),
        (
            "ds",
            {},
            f"ds[]\t{KEY}\tirreducible",
            (
                frozenset({1, 2}),
                tuple(itertools.product("DFI", repeat=2)),
                (1, 1, 2, 1, 1, 2, 1, 0, 1),
                None,
            ),
        ),
        (
            "is",
            {},
            f"is[]\t{KEY}\tfound 4 10 0",
            (
                frozenset({1, 2}),
                tuple(itertools.product(range(3), repeat=2)),
                (0, -1, -1, 0, -1, -1, -2, -3, -3),
                (((1, 2), 1),),
            ),
        ),
        (
            "scattered",
            {"r": 2},
            f"scattered[2]\t{KEY}\tfound 4 14 0",
            (
                frozenset({1, 2}),
                tuple(itertools.product(range(4), repeat=2)),
                (0, -1, -1, -1, 0, -1, -1, -1, -1, -2, -2, -2, -2, -2, -2, -2),
                (((1, 2), 2),),
            ),
        ),
        (
            "cyclepacking",
            {},
            f"cyclepacking[]\t{KEY}\tfound 4 46 0",
            (
                frozenset({1, 2}),
                (((), ()), ((), ((1, 2),)), ((1,), ()), ((1, 2), ()), ((2,), ())),
                (0, -1, -1, -1, 0),
                None,
            ),
        ),
        (
            "sct",
            {"s": 3},
            f"sct[3]\t{KEY}\tfound 4 44 -1",
            (frozenset({1, 2}), ((0,), (1,), (2,), (3,)), (0, 0, 0, 1), None),
        ),
    ]

    @pytest.mark.parametrize(
        "pid,kw,record,class_key", PINNED_RECORDS, ids=[p for p, _, _, _ in PINNED_RECORDS]
    )
    def test_pinned_keys(self, monkeypatch, tmp_path, pid, kw, record, class_key):
        spec = get_problem(pid, **kw)
        b = self.PINNED_WINDOW
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        path = tmp_path / "reps.tsv"
        find_replacement(spec, b, cache=RepCache(str(path)), t=2)
        assert path.read_text().splitlines() == [CACHE_HEADER, record]
        assert compute_signature(spec, b, 2).class_key() == class_key

    def test_ds_radius_one_is_plain_ds(self, monkeypatch, tmp_path):
        b = self.PINNED_WINDOW
        records = {
            record_of(monkeypatch, tmp_path, spec, b)
            for spec in (get_problem("ds"), get_problem("ds", r=1))
        }
        assert len(records) == 1 and records.pop()[0].startswith("ds[]\t")


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
    """The enumerate-and-scan search that the table of representatives
    answers; the budget counts raw candidates, new class or not."""
    sig_b = compute_signature(spec, b, t)
    if sig_b.offset is None or b.graph.n - 1 < len(b.labels):
        return FindResult(IRREDUCIBLE)
    pinned = b.boundary_subgraph().edges
    for raw, j in enumerate(boundaried._candidates(len(b.labels), pinned, b.graph.n - 1)):
        if budget is not None and raw >= budget:
            return FindResult(BUDGET)
        if j is None:
            continue
        sig_j = compute_signature(spec, j, t)
        if sig_j.offset is None or sig_j.offset > sig_b.offset:
            continue
        if (sig_j.label_set, sig_j.table, sig_j.ell) == (
            sig_b.label_set,
            sig_b.table,
            sig_b.ell,
        ):
            return FindResult(FOUND, j, sig_j.offset - sig_b.offset)
    return FindResult(IRREDUCIBLE)


def _outcome(search, spec, b, budget, t):
    try:
        res = search(spec, b, budget=budget, t=t)
    except OracleCapExceeded as exc:
        return ("raised", str(exc))
    j = None if res.j is None else (res.j.graph.n, sorted(res.j.graph.edges), res.j.labels)
    return (res.status, j, res.c)


def _check_against_reference(monkeypatch, queries):
    """Each query answered through one shared table, then in reverse on a fresh one."""
    expected = [_outcome(reference_find_replacement, *q) for q in queries]
    for order in (range(len(queries)), reversed(range(len(queries)))):
        monkeypatch.setattr(replace, "TABLE", replace.Table())
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
        monkeypatch.setattr(replace, "TABLE", replace.Table())
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
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        first = find_replacement(VC, b, cache=RepCache(path))
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        assert find_replacement(VC, b, cache=RepCache(path)) == first
        # answered from the file: no cursor was built and no answer kept
        assert replace.TABLE.cursors == {}
        assert all(view.answers == {} for view in replace.TABLE.views.values())
        assert find_replacement(VC, b) == first


def key(name):
    """A record key with five fields."""
    return f"vc[]\t1\t1 0\t{name}\tNone"


class TestRepCache:
    def test_hit_round_trip(self, monkeypatch, tmp_path):
        path = tmp_path / "reps.tsv"
        b = one_labelled(generate(parse_family("path:3")))
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        first = find_replacement(VC, b, cache=RepCache(str(path)))
        assert first.status == FOUND
        written = path.read_bytes()
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        second = find_replacement(VC, b, cache=RepCache(str(path)))
        assert second == first and replace.TABLE.cursors == {}
        assert path.read_bytes() == written

    def test_corrupt_tail_dropped(self, tmp_path):
        path = str(tmp_path / "reps.tsv")
        writer = RepCache(path)
        writer.put(key("a"), "budget")
        with open(path, "ab") as fh:
            fh.write(b"broken \xff line without tabs\n")
        writer.put(key("b"), "found 1 0 -1")
        with open(path, "rb") as fh:
            before = fh.read()
        cache = RepCache(path)
        assert cache.data == {key("a"): "budget", key("b"): "found 1 0 -1"}
        assert cache.skipped == 1
        with open(path, "rb") as fh:
            assert fh.read() == before  # loading never rewrites the file
        # a torn tail must not swallow the next record
        with open(path, "a") as fh:
            fh.write(key("torn") + "\tfound 1")
        RepCache(path).put(key("c"), "cap 21 edges")
        again = RepCache(path)
        assert sorted(again.data) == [key("a"), key("b"), key("c")] and again.skipped == 2

    def test_new_file_starts_with_version_header(self, tmp_path):
        path = tmp_path / "reps.tsv"
        RepCache(str(path)).put(key("a"), "irreducible")
        assert path.read_text().splitlines() == [CACHE_HEADER, key("a") + "\tirreducible"]
        cache = RepCache(str(path))
        assert cache.data == {key("a"): "irreducible"} and cache.skipped == 0

    def test_one_append_write_per_record(self, monkeypatch, tmp_path):
        path = str(tmp_path / "reps.tsv")
        writes = []

        def write(fd, data):
            writes.append((fcntl.fcntl(fd, fcntl.F_GETFL) & os.O_APPEND, data))
            return real_write(fd, data)

        real_write = os.write
        monkeypatch.setattr(replace.os, "write", write)
        cache = RepCache(path)
        for name in "abc":
            cache.put(key(name), "budget")
        cache.put(key("a"), "budget")  # already the key's last record
        assert [flag for flag, _ in writes] == [os.O_APPEND] * 3
        assert writes[0][1] == f"{CACHE_HEADER}\n{key('a')}\tbudget\n".encode()

    def test_other_version_fails_loudly(self, tmp_path):
        path = tmp_path / "reps.tsv"
        path.write_text("#protkern-repcache 0\na\t1 0 1\t0\n")
        with pytest.raises(ValueError, match="not in format"):
            RepCache(str(path))
        assert path.read_text() == "#protkern-repcache 0\na\t1 0 1\t0\n"

    @pytest.mark.parametrize(
        "content",
        [
            "a\t1 0 1\t0\n",
            "#protkern-repcache 1\nvc[]t=1|bsg=00|labels=[1]|table=()=0\t1 0 1\t0\n",
            "#protkern-repcache",
            "\n",
        ],
        ids=["pre-header", "v1", "torn-header", "blank-line"],
    )
    def test_file_without_the_header_is_refused(self, tmp_path, content):
        path = tmp_path / "reps.tsv"
        path.write_text(content)
        with pytest.raises(ValueError, match="not in format"):
            RepCache(str(path))
        assert path.read_text() == content

    # a key of five tab-free fields, and an answer that parses
    KEY = st.lists(
        st.text("abcxyz|=[]; \u00e9\u2028\x0b\r", max_size=4), min_size=5, max_size=5
    ).map("\t".join)
    ANSWER = st.one_of(
        st.tuples(st.integers(0, 10**6), st.integers(0, 2**40), st.integers(-50, 50)).map(
            lambda a: "found %d %d %d" % a
        ),
        st.sampled_from([IRREDUCIBLE, BUDGET]),
        st.text("abc 019\u00e9\r|", min_size=1, max_size=8).map("cap ".__add__),
    )
    # a bad line: anything without a newline that is not six fields, or six
    # fields whose answer does not parse
    BAD = st.one_of(
        st.binary(max_size=24).filter(lambda b: b"\n" not in b and b.count(b"\t") != 5),
        st.sampled_from(
            ["found", "found 1 2", "found -1 2 0", "found 1 2 3 4", "found 1 2 +3", "cap", "budget "]
        ).map(lambda a: f"a\tb\tc\td\te\t{a}".encode()),
    )

    @settings(max_examples=80, deadline=None)
    @given(
        items=st.lists(
            st.one_of(
                st.tuples(KEY, ANSWER).map(lambda r: ("rec", r)), BAD.map(lambda b: ("bad", b))
            )
        ),
        header=st.booleans(),
        tail=st.binary(max_size=12).filter(lambda b: b"\n" not in b and b"\t" not in b),
    )
    def test_fuzzed_file(self, items, header, tail):
        lines, records, bad = [], {}, 0
        if header:
            lines.append(CACHE_HEADER.encode())
        for kind, item in items:
            if kind == "bad":
                lines.append(item)
                bad += 1
            else:
                records[item[0]] = item[1]  # the last record of a key counts
                lines.append("\t".join(item).encode())
        content = b"".join(line + b"\n" for line in lines) + tail
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "reps.tsv")
            with open(path, "wb") as fh:
                fh.write(content)
            if content and not header:
                with pytest.raises(ValueError, match="not in format"):
                    RepCache(path)
                with open(path, "rb") as fh:
                    assert fh.read() == content
                return
            cache = RepCache(path)
            assert cache.data == records
            assert cache.skipped == bad + (tail != b"")
            with open(path, "rb") as fh:
                assert fh.read() == content  # loading never rewrites the file
            cache.put(key("late"), BUDGET)
            again = RepCache(path)
            assert again.data == {**records, key("late"): BUDGET}
            assert again.skipped == cache.skipped

    def test_stale_entry_revalidated(self, monkeypatch, tmp_path):
        path = tmp_path / "reps.tsv"
        b = one_labelled(generate(parse_family("path:3")))
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        res = find_replacement(VC, b, cache=RepCache(str(path)))
        [(k, answer)] = RepCache(str(path)).data.items()
        assert res.status == FOUND and answer == "found 1 0 -1"
        # well-formed found records that are no replacement of b: the wrong
        # class, the wrong offset, not smaller, another boundary subgraph
        for stale in ("found 2 1 0", "found 1 0 0", "found 3 3 -1", "found 1 0 1"):
            path.write_text(f"{CACHE_HEADER}\n{k}\t{stale}\n")
            monkeypatch.setattr(replace, "TABLE", replace.Table())
            assert find_replacement(VC, b, cache=RepCache(str(path))) == res
            assert RepCache(str(path)).data[k] == answer  # the table's answer follows
        # other answers are taken as recorded
        path.write_text(f"{CACHE_HEADER}\n{k}\tcap from the file\n")
        monkeypatch.setattr(replace, "TABLE", replace.Table())
        with pytest.raises(OracleCapExceeded, match="from the file"):
            find_replacement(VC, b, cache=RepCache(str(path)))


class TestApplyReplacement:
    def test_path_tail(self):
        inst = ProblemInstance(generate(parse_family("path:8")), 3, VC)
        X = frozenset({0, 1, 2})  # boundary vertex 2
        b = BoundariedGraph(
            Graph.from_edges(3, [(0, 1), (1, 2)]), (2,), (1,)
        )
        res = find_replacement(VC, b)
        assert res.status == FOUND
        out = apply_replacement(inst, X, (2,), res.j, res.c)
        assert out.graph.n == 8 - (3 - res.j.graph.n)
        assert (out.k, out.spec) == (inst.k + res.c, VC)
        assert decide(out) == decide(inst)

    def test_rejects_positive_c(self):
        inst = ProblemInstance(generate(parse_family("path:4")), 1, VC)
        j = one_labelled(Graph.from_edges(1, []))
        with pytest.raises(ValueError):
            apply_replacement(inst, {0, 1}, (1,), j, 1)

    def test_rejects_label_mismatch(self):
        inst = ProblemInstance(generate(parse_family("path:6")), 1, VC)
        j = BoundariedGraph(Graph.from_edges(1, []), (0,), (2,))
        with pytest.raises(ValueError):
            apply_replacement(inst, {0, 1, 2}, (2,), j, 0)

    def test_rejects_nonshrinking(self):
        inst = ProblemInstance(generate(parse_family("path:6")), 1, VC)
        j = one_labelled(generate(parse_family("path:3")), 2)
        with pytest.raises(ValueError):
            apply_replacement(inst, {0, 1, 2}, (2,), j, 0)


class TestEndToEndSoundness:
    @pytest.mark.parametrize("pid", ["vc", "ds", "is"])
    @pytest.mark.parametrize("fam", ["path:9", "star-of-paths:3,3", "cycle:9"])
    def test_decision_preserved(self, pid, fam):
        spec = get_problem(pid)
        g = generate(parse_family(fam))
        prefix = frozenset(range(6)) if fam != "cycle:9" else frozenset(range(1, 7))
        res = find_replacement(spec, split(g, prefix))
        if res.status != FOUND:
            pytest.skip("window irreducible for this problem")
        for k in range(g.n + 1):
            inst = ProblemInstance(g, k, spec)
            out = apply_replacement(inst, prefix, tuple(sorted(boundary_of(g, prefix))), res.j, res.c)
            assert decide(out) == decide(inst)
