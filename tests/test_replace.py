import itertools

import pytest

from protkern.boundaried import BoundariedGraph, enumerate_boundaried, glue
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
    FOUND,
    FOUND_CACHE,
    IRREDUCIBLE,
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
