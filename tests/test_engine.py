import dataclasses
import hashlib
import math
import random
import sys
from collections import Counter
from functools import cached_property

import pytest

from protkern import boundaried, engine, protrusion, replace, treewidth
from protkern.boundaried import canonical_code, split
from protkern.errors import OracleCapExceeded
from protkern.engine import (
    EngineConfig,
    meta_kernelize,
    trivial_instance,
    verify_kernel,
)
from protkern.graph import Graph, generate, parse_family
from protkern.problems import (
    ProblemInstance,
    brute_opt,
    compute_signature,
    decide,
    get_problem,
)
from protkern.replace import BUDGET, find_replacement, known_answer

VC = get_problem("vc")
DS = get_problem("ds")


def cfg(**kw):
    kw.setdefault("t", 1)
    return EngineConfig(**kw)


def record_keys(monkeypatch) -> list:
    """The key of each window the engine meets, in order."""
    keys, key_of = [], engine.window_key

    def recorded(g, y):
        keys.append(key_of(g, y))
        return keys[-1]

    monkeypatch.setattr(engine, "window_key", recorded)
    return keys


def fresh_table(monkeypatch):
    monkeypatch.setattr(replace, "_CURSORS", {})
    monkeypatch.setattr(replace, "_VIEWS", {})
    monkeypatch.setattr(replace, "_CODES", {})


def count_treewidth_calls(monkeypatch) -> dict:
    """Count the engine's compute_xr calls, those of them that decide some
    treewidth, and the calls of the certificate core decide_tw_masks they make."""
    calls = {"compute_xr": 0, "deciding": 0, "decide_tw_masks": 0}
    xr, decide = engine.compute_xr, protrusion.decide_tw_masks

    def counted_xr(*args, **kwargs):
        before = calls["decide_tw_masks"]
        calls["compute_xr"] += 1
        out = xr(*args, **kwargs)
        calls["deciding"] += calls["decide_tw_masks"] > before
        return out

    def counted_decide(*args, **kwargs):
        calls["decide_tw_masks"] += 1
        return decide(*args, **kwargs)

    monkeypatch.setattr(engine, "compute_xr", counted_xr)
    monkeypatch.setattr(protrusion, "decide_tw_masks", counted_decide)
    return calls


class TestConfig:
    def test_defaults_derive_from_t(self):
        assert EngineConfig(t=2).size_threshold == 4 * engine.SPLIT_C + 2 * 5

    def test_fields(self):
        # the cut-set bound, window size and search budget are fixed, not settings
        assert [f.name for f in dataclasses.fields(EngineConfig)] == ["t", "size_threshold", "cache_path"]

    @pytest.mark.parametrize("t", [1, 2])
    def test_cut_sets_have_up_to_2t_vertices(self, monkeypatch, t):
        sizes = []
        xr = engine.compute_xr
        monkeypatch.setattr(engine, "compute_xr", lambda g, R, **kw: (sizes.append(len(R)), xr(g, R, **kw))[1])
        monkeypatch.setattr(engine, "xr_window", lambda *args: None)  # nothing fires, so every cut set is tried
        g = generate(parse_family("grid:2,8"))
        meta_kernelize(ProblemInstance(g, 8, VC), cfg(t=t, size_threshold=11))
        assert Counter(sizes) == {s: math.comb(16, s) for s in range(1, 2 * t + 1)}

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError):
            EngineConfig(t=0)

    def test_rejects_tiny_threshold(self):
        with pytest.raises(ValueError):
            EngineConfig(t=1, size_threshold=10)


class TestTrivialInstances:
    @pytest.mark.parametrize("pid,kw", [("vc", {}), ("ds", {}), ("sct", {"s": 3})])
    def test_min_problems_are_no(self, pid, kw):
        inst = trivial_instance(get_problem(pid, **kw))
        assert decide(inst) is False

    @pytest.mark.parametrize(
        "pid,kw", [("is", {}), ("cyclepacking", {}), ("scattered", {"r": 2})]
    )
    def test_max_problems_are_yes(self, pid, kw):
        inst = trivial_instance(get_problem(pid, **kw))
        assert decide(inst) is True


class TestDriverLoop:
    def test_small_yes_instance_returned_unchanged(self):
        g = generate(parse_family("path:4"))
        inst = ProblemInstance(g, 5, VC)
        out, log = meta_kernelize(inst, cfg())
        assert out.graph == g and out.k == 5 and log.steps == []

    def test_negative_budget_collapses(self):
        g = generate(parse_family("path:4"))
        out, _ = meta_kernelize(ProblemInstance(g, -2, VC), cfg())
        assert decide(out) is False and out.graph.n == 2

    def test_long_path_shrinks(self):
        g = generate(parse_family("path:40"))
        inst = ProblemInstance(g, 3, VC)
        out, log = meta_kernelize(inst, cfg())
        assert len(log.steps) > 0
        assert out.graph.n < g.n
        # vc(P40) = 20 > 3, so the kernel must still decide NO
        assert decide(out) is False

    def test_steps_are_monotone(self):
        g = generate(parse_family("star-of-paths:3,12"))
        inst = ProblemInstance(g, 4, DS)
        out, log = meta_kernelize(inst, cfg())
        for s in log.steps:
            assert s["n_after"] < s["n_before"]
            assert s["k_after"] <= s["k_before"]
        ns = [s["n_before"] for s in log.steps] + [out.graph.n]
        assert ns == sorted(ns, reverse=True) or decide(out) is False

    def test_quiescent_on_own_output(self):
        g = generate(parse_family("path:40"))
        out, _ = meta_kernelize(ProblemInstance(g, 3, VC), cfg())
        again, log2 = meta_kernelize(out, cfg())
        assert again.graph == out.graph and again.k == out.k
        assert log2.steps == []

    def test_deterministic(self):
        g = generate(parse_family("star-of-paths:4,10"))
        inst = ProblemInstance(g, 5, VC)
        a_out, a_log = meta_kernelize(inst, cfg())
        b_out, b_log = meta_kernelize(inst, cfg())
        assert a_out.graph == b_out.graph and a_out.k == b_out.k
        assert a_log.steps == b_log.steps

    def test_cache_file_reused_across_runs(self, tmp_path, monkeypatch):
        path = tmp_path / "reps.tsv"
        g = generate(parse_family("star-of-paths:3,12"))
        inst = ProblemInstance(g, 4, DS)
        fresh_table(monkeypatch)
        first, log1 = meta_kernelize(inst, cfg(cache_path=str(path)))
        written = path.read_bytes()
        assert log1.steps and written
        second, log2 = meta_kernelize(inst, cfg(cache_path=str(path)))
        assert second.graph == first.graph and second.k == first.k
        assert log2.steps == log1.steps
        assert path.read_bytes() == written  # the file holds every answer
        # on a fresh table, with the file and without it
        for cache_path in (str(path), None):
            fresh_table(monkeypatch)
            again, log3 = meta_kernelize(inst, cfg(cache_path=cache_path))
            assert (again.graph, again.k) == (first.graph, first.k)
            assert log3.steps == log1.steps  # the file changed no kernel
        assert path.read_bytes() == written

    def test_cache_keys_end_with_the_search_budget(self, tmp_path, monkeypatch):
        # files written when the budget was a setting keyed its default, 20000,
        # so they must still answer
        path = tmp_path / "reps.tsv"
        fresh_table(monkeypatch)
        _, log = meta_kernelize(
            ProblemInstance(generate(parse_family("path:40")), 3, VC), cfg(cache_path=str(path))
        )
        header, *records = path.read_text().splitlines()
        assert log.steps and header == replace.CACHE_HEADER and records
        assert all(r.split("\t")[4] == "20000" for r in records)

    def test_file_answers_checked_once_per_run(self, tmp_path, monkeypatch):
        path = str(tmp_path / "reps.tsv")
        inst = ProblemInstance(generate(parse_family("path:360")), 180, VC)
        fresh_table(monkeypatch)
        first, log1 = meta_kernelize(inst, cfg(cache_path=path))
        fresh_table(monkeypatch)
        keys, calls = set(), []
        from_file, signature = replace._from_file, replace.compute_signature

        def read(spec, t, b, bsg, text):
            keys.add((spec, t, canonical_code(b), bsg.n, bsg.edges))
            return from_file(spec, t, b, bsg, text)

        def counted(*args):
            calls.append(args)
            return signature(*args)

        monkeypatch.setattr(replace, "_from_file", read)
        monkeypatch.setattr(replace, "compute_signature", counted)
        again, log2 = meta_kernelize(inst, cfg(cache_path=path))
        assert (again.graph, again.k) == (first.graph, first.k)
        assert log2.steps == log1.steps
        assert keys and len(calls) <= 2 * len(keys)

    def test_windows_are_remembered(self, monkeypatch):
        fresh_table(monkeypatch)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return compute_signature(*args, **kwargs)

        monkeypatch.setattr(replace, "compute_signature", counted)
        inst = ProblemInstance(generate(parse_family("star-of-paths:3,12")), 4, DS)
        first, log1 = meta_kernelize(inst, cfg())
        assert calls and log1.steps
        calls.clear()
        second, log2 = meta_kernelize(inst, cfg())
        assert calls == []
        assert (second.graph, second.k, log2.steps) == (first.graph, first.k, log1.steps)

    def test_sct_preprocess_runs_first(self):
        # triangle plus a pendant path: the path is cycle-free and drops out
        g = Graph.from_edges(
            8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        )
        inst = ProblemInstance(g, 0, get_problem("sct", s=3))
        out, log = meta_kernelize(inst, cfg())
        assert out.graph.n <= 3
        assert any("preprocessing" in w for w in log.warnings)

    @pytest.mark.parametrize("k,answer", [(9, True), (8, False)])
    def test_width_two_cut_sets_of_three_vertices(self, k, answer):
        # the 3 x 6 grid has no cut of two vertices, so the first protrusion
        # comes from a three-vertex R whose components are decided at t = 3;
        # vc(3 x 6 grid) = 9, and the kernel is pinned
        g = generate(parse_family("grid:3,6"))
        out, log = meta_kernelize(ProblemInstance(g, k, VC), cfg(t=2, size_threshold=12))
        assert log.steps[0]["R"] == [0, 1, 2]
        assert (out.graph.n, out.k) == (10, k - 4)
        assert sorted(out.graph.edges) == [
            (0, 3), (0, 7), (1, 3), (1, 4), (1, 5), (2, 3), (2, 5),
            (2, 7), (4, 6), (5, 6), (5, 8), (6, 9), (7, 8), (8, 9),
        ]
        assert decide(out) is answer

    def test_ladder_below_threshold_decides_no_treewidth(self, monkeypatch):
        # 20 vertices against a threshold of 30 at t = 2: no region can reach it
        calls = count_treewidth_calls(monkeypatch)
        g = generate(parse_family("grid:2,10"))
        out, log = meta_kernelize(ProblemInstance(g, 10, VC), cfg(t=2))
        assert (out.graph, out.k, log.steps) == (g, 10, [])
        assert calls["compute_xr"] == 0 and calls["decide_tw_masks"] == 0

    def test_graph_under_threshold_returned_at_once(self, monkeypatch, tmp_path):
        calls = count_treewidth_calls(monkeypatch)
        g = generate(parse_family("path:6"))
        out, log = meta_kernelize(ProblemInstance(g, 2, VC), cfg())
        assert (out.graph, out.k, log.steps, log.warnings) == (g, 2, [], [])
        # the sct preprocessing still runs and logs first
        tri = Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
        out, log = meta_kernelize(ProblemInstance(tri, 0, get_problem("sct", s=3)), cfg())
        assert (out.graph.n, log.steps) == (3, [])
        assert log.warnings == ["preprocessing removed 2 vertices on no short cycle"]
        assert calls["compute_xr"] == 0
        # a negative budget still collapses, and a bad cache file is still refused
        out, _ = meta_kernelize(ProblemInstance(g, -1, VC), cfg())
        assert out == trivial_instance(VC)
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a cache\n")
        with pytest.raises(ValueError, match="not in format"):
            meta_kernelize(ProblemInstance(g, 2, VC), cfg(cache_path=str(bad)))

    def test_window_codes_are_remembered(self, monkeypatch, tmp_path):
        fresh_table(monkeypatch)
        windows, keys = [], record_keys(monkeypatch)

        def recorded(spec, b, **kwargs):
            windows.append(b)
            return find_replacement(spec, b, **kwargs)

        monkeypatch.setattr(engine, "find_replacement", recorded)
        path = tmp_path / "reps.tsv"
        runs = [(VC, generate(parse_family("path:60")), 30, None)]
        for family, seed in [("path:12", 12), ("cycle:12", 13), ("grid:3,4", 4), ("random-sparse:12,14", 104)]:
            g = generate(parse_family(family, seed=seed))
            runs += [(spec, g, brute_opt(spec, g), 11) for spec in CORPUS_SPECS.values()]

        def kernelize_all():
            outs = []
            for spec, g, k, threshold in runs:
                config = cfg(size_threshold=threshold, cache_path=str(path))
                out, log = meta_kernelize(ProblemInstance(g, k, spec), config)
                outs.append((out.graph, out.k, log.steps))
            return outs

        first = kernelize_all()
        # each raw window is canonized once, under its masks and boundary; one
        # met again is built only for a problem the table has not answered it for
        assert len(keys) > len(windows) > len(replace._CODES) == len(set(keys)) > 0
        for b in windows:
            assert replace._CODES[b.graph.adj_masks, b.boundary][0] == canonical_code(b)
        records = path.read_text().splitlines()[1:]
        assert {r.split("\t")[3] for r in records} == {canonical_code(b).hex() for b in windows}
        canonized = []

        def counted(b, *args):
            canonized.append(b)
            return canonical_code(b, *args)

        monkeypatch.setattr(replace, "canonical_code", counted)
        windows.clear()
        keys.clear()
        assert kernelize_all() == first
        assert keys and windows == [] and canonized == []

    def test_budget_warning_for_a_window_met_again(self, monkeypatch):
        # at a budget of one raw candidate the path's windows hit the budget,
        # and the table answers the repeated ones without building them
        fresh_table(monkeypatch)
        monkeypatch.setattr(engine, "ENUM_BUDGET", 1)
        keys, met = record_keys(monkeypatch), []

        def remembered(*args):
            res = known_answer(*args)
            met.append(res)
            return res

        monkeypatch.setattr(engine, "known_answer", remembered)
        out, log = meta_kernelize(ProblemInstance(generate(parse_family("path:40")), 20, VC), cfg())
        assert (out.graph.n, out.k, len(log.steps)) == (24, 12, 4)
        assert any(res is not None and res.status == BUDGET for res in met)
        assert len(keys) == 62 and len(set(keys)) == 12
        assert log.warnings == [
            f"component of size {n} skipped: too large for exact treewidth" for n in range(39, 32, -1)
        ] + ["replacement search for a 6-vertex window hit the budget"]

    def test_path_decides_treewidth_for_fewer_cut_sets(self, monkeypatch):
        calls = count_treewidth_calls(monkeypatch)
        inst = ProblemInstance(generate(parse_family("path:40")), 20, VC)
        out, log = meta_kernelize(inst, cfg())
        assert log.steps and out.graph.n < 40
        # 7 of the 15 cut sets tried before the 8 splices have too small a region
        assert 0 < calls["deciding"] < calls["compute_xr"]

    @pytest.mark.parametrize("pid", ["vc", "ds", "is", "cyclepacking"])
    def test_decision_agreement_over_k_range(self, pid):
        spec = get_problem(pid)
        g = generate(parse_family("path:13"))
        for k in range(0, 8):
            inst = ProblemInstance(g, k, spec)
            out, _ = meta_kernelize(inst, cfg())
            assert decide(out) == decide(inst), (pid, k)


def kernel_digest(out, log) -> str:
    """sha256 of (n', k', sorted edges, step count) of one kernelization."""
    key = (out.graph.n, out.k, sorted(out.graph.edges), len(log.steps))
    return hashlib.sha256(repr(key).encode()).hexdigest()


def shuffled_family(family: str, seed: int) -> Graph:
    g = generate(parse_family(family))
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


CORPUS_SPECS = {
    "vc": VC,
    "ds": DS,
    "is": get_problem("is"),
    "scattered": get_problem("scattered", r=2),
    "cyclepacking": get_problem("cyclepacking"),
    "sct": get_problem("sct", s=3),
}


class TestPinnedKernels:
    """Kernels pinned before cut sets were rejected by region size.

    Any change to the candidate loop must leave these digests alone.
    """

    def test_ladder_above_threshold(self):
        # 32 vertices against a threshold of 30 at t = 2, so treewidth runs
        inst = ProblemInstance(generate(parse_family("grid:2,16")), 16, VC)
        assert kernel_digest(*meta_kernelize(inst, cfg(t=2))) == (
            "d5e7aca655f23e85f7f6abb2712c2d2c82c8a739e0a3e038cea7f466bc8c5765"
        )

    def test_shuffled_path(self):
        inst = ProblemInstance(shuffled_family("path:120", 7), 60, VC)
        assert kernel_digest(*meta_kernelize(inst, cfg())) == (
            "d5141eea3f2260a5ead747e49c3b7454a36b3f4e8ed6dc9d4762d9dd754c0d8b"
        )

    def test_ds_star_of_paths(self):
        inst = ProblemInstance(generate(parse_family("star-of-paths:3,12")), 4, DS)
        assert kernel_digest(*meta_kernelize(inst, cfg())) == (
            "abe4e84dfd707da12903c2f316e705cfeb8d90181ea7bdd086674105ca689dce"
        )

    @pytest.mark.parametrize(
        "family,pid,digest",
        [
            ("grid:3,3", "vc", "1dab2e608c4a6390da038eefc95f015d99c5478e97999f06f9f308ff62def3bb"),
            ("grid:3,3", "ds", "524c922d521a5476542dbbce5c77350a4d975e251d90cf218e1e558da2984a0d"),
            ("grid:3,3", "is", "16e4ddaecc3daa5ab79eadfd18717b9bb06f26424abb005c97e692bd823c589c"),
            ("grid:3,3", "scattered", "f0a2add6e53dabebbdd10c9e6a3b1c273baeff2d19c396bd7b54bdc222b67628"),
            ("grid:3,3", "cyclepacking", "e5fde1b9faddf8d07cdf7ce37247b7428974940ea481161a23e965386e41d62a"),
            ("grid:3,3", "sct", "beb6783e567091d6a8912b316c9cc68e79a7bc8ca3e354c3f05056b508ee9e45"),
            ("path:12", "vc", "6b2feaf515d651ad48eda0750147d59ab25e0d52aa8d2645999d7134c159311b"),
            ("path:12", "ds", "0f967ed9a092bf714860e0f610daf5aef5eece27896dadce51a79b2d97015b40"),
            ("path:12", "is", "6b2feaf515d651ad48eda0750147d59ab25e0d52aa8d2645999d7134c159311b"),
            ("path:12", "scattered", "0f967ed9a092bf714860e0f610daf5aef5eece27896dadce51a79b2d97015b40"),
            ("path:12", "cyclepacking", "0053b864302088fc3f9b8662ddafc7762f9b05cebd959e87d0fa77a66cfcf41a"),
            ("path:12", "sct", "beb6783e567091d6a8912b316c9cc68e79a7bc8ca3e354c3f05056b508ee9e45"),
        ],
    )
    def test_corpus_calls(self, family, pid, digest):
        # the benchmark's corpus settings, at the tight budget k = OPT
        spec = CORPUS_SPECS[pid]
        g = generate(parse_family(family))
        inst = ProblemInstance(g, brute_opt(spec, g), spec)
        assert kernel_digest(*meta_kernelize(inst, cfg(size_threshold=11))) == digest


class TestSpliceLoop:
    """Every graph of the loop is derived from the input: no remainder is
    built, nothing is glued, validated again or given Graph.adj."""

    def test_shuffled_path(self, monkeypatch):
        fresh_table(monkeypatch)
        g = shuffled_family("path:200", 5)
        validated, adj_built, cut, keys = [], [], [], record_keys(monkeypatch)
        post_init, adj, induced = Graph.__post_init__, Graph.adj.func, boundaried.induced_subgraph

        def counted_adj(h):
            adj_built.append(h)
            return adj(h)

        def refuse(*args):
            raise AssertionError("glue called in the engine loop")

        prop = cached_property(counted_adj)
        prop.__set_name__(Graph, "adj")
        monkeypatch.setattr(Graph, "adj", prop)
        monkeypatch.setattr(Graph, "__post_init__", lambda h: (validated.append(h), post_init(h))[1])
        monkeypatch.setattr(boundaried, "induced_subgraph", lambda h, X: (cut.append(len(X)), induced(h, X))[1])
        for name, module in list(sys.modules.items()):
            if name.startswith("protkern") and hasattr(module, "glue"):
                monkeypatch.setattr(module, "glue", refuse)
        inst = ProblemInstance(Graph(g.n, g.edges), 100, VC)
        out, log = meta_kernelize(inst, cfg())
        assert len(log.steps) > 50 and out.graph.n < 30
        assert validated == [inst.graph]
        assert adj_built == [] and "adj" not in out.graph.__dict__
        # split cuts out each raw window once, when the table first meets it,
        # and never the rest of the graph
        assert len(keys) == len(log.steps) > len(cut) == len(set(keys))
        assert max(cut) <= 2 * engine.SPLIT_C


class TestWindowLoop:
    """Each window is certified, validated and cut on vertex masks: no
    TreeDecomposition or nice form is built, G[X] is never built, and each
    witness is validated once."""

    # sct preprocessing leaves this corpus graph under the threshold, with no window
    RUNS = [("path", None), ("random-sparse", "vc"), ("random-sparse", "ds"),
            ("random-sparse", "is"), ("random-sparse", "scattered"),
            ("random-sparse", "cyclepacking")]

    @staticmethod
    def run(kind, pid):
        if kind == "path":
            inst = ProblemInstance(shuffled_family("path:200", 5), 100, VC)
            return meta_kernelize(inst, cfg())
        spec, g = CORPUS_SPECS[pid], generate(parse_family("random-sparse:12,14", seed=104))
        return meta_kernelize(ProblemInstance(g, brute_opt(spec, g), spec), cfg(size_threshold=11))

    @pytest.mark.parametrize("kind,pid", RUNS)
    def test_loop_shape(self, monkeypatch, kind, pid):
        fresh_table(monkeypatch)
        calls = dict.fromkeys(["xr_window", "window", "validated", "split", "induced", "td", "unmet"], 0)
        xr_window, keys = engine.xr_window, record_keys(monkeypatch)

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        def window(*args):
            y = counted("xr_window", xr_window)(*args)
            calls["window"] += y is not None
            return y

        def answer(*args):
            res = known_answer(*args)
            calls["unmet"] += res is None
            return res

        def refuse(*args, **kwargs):
            raise AssertionError("not on the window path")

        monkeypatch.setattr(engine, "xr_window", window)
        monkeypatch.setattr(engine, "known_answer", answer)
        monkeypatch.setattr(treewidth, "validate_masks", counted("validated", treewidth.validate_masks))
        monkeypatch.setattr(engine, "split", counted("split", engine.split))
        monkeypatch.setattr(boundaried, "induced_subgraph", counted("induced", boundaried.induced_subgraph))
        monkeypatch.setattr(protrusion, "induced_subgraph", refuse)
        monkeypatch.setattr(treewidth, "validate", refuse)
        monkeypatch.setattr(treewidth, "_nice_form", refuse)
        monkeypatch.setattr(protrusion, "_nice_form", refuse)
        init = treewidth.TreeDecomposition.__init__
        monkeypatch.setattr(treewidth.TreeDecomposition, "__init__", counted("td", init))
        _, log = self.run(kind, pid)
        assert calls["td"] == 0
        assert calls["validated"] == calls["xr_window"] > 0
        # G[Y] is built for each window the table had not met, and only then
        assert calls["induced"] == calls["split"] == calls["unmet"] == len(set(keys))
        assert len(keys) == calls["window"] >= len(log.steps) > 0
        if kind == "path":
            assert len(log.steps) > 50 and calls["split"] < calls["window"]

    @pytest.mark.parametrize("kind,pid", RUNS)
    def test_key_lookup_matches_split_and_search(self, monkeypatch, kind, pid):
        # every window's key is the content of split(g, Y), and the table's
        # answer by key is a fresh table's find_replacement on that window
        fresh_table(monkeypatch)
        windows, key_of = [], engine.window_key
        monkeypatch.setattr(engine, "window_key", lambda g, y: (windows.append((g, y)), key_of(g, y))[1])
        self.run(kind, pid)
        spec = VC if kind == "path" else CORPUS_SPECS[pid]

        def outcome(answer, *args, **kwargs):
            try:
                res = answer(*args, **kwargs)
            except OracleCapExceeded as exc:
                return "raised", str(exc)
            j = None if res.j is None else (res.j.graph.n, sorted(res.j.graph.edges), res.j.boundary)
            return res.status, j, res.c

        looked_up = []
        for g, y in windows:
            b = split(g, y)
            assert b.labels == tuple(range(1, len(b.boundary) + 1))
            key = key_of(g, y)
            assert key == (Graph.from_edges(b.graph.n, b.graph.edges).adj_masks, b.boundary)
            looked_up.append(outcome(known_answer, spec, key, None, engine.ENUM_BUDGET, 1))
        assert windows
        fresh_table(monkeypatch)
        for (g, y), got in zip(windows, looked_up):
            want = outcome(find_replacement, spec, split(g, y), budget=engine.ENUM_BUDGET, t=1)
            assert got == want

    def test_invalid_certificate_raises(self, monkeypatch):
        # the first bag holds the first eliminated vertex, in no other bag
        # (or is the root bag, the only one), so any vertex dropped from it
        # leaves that vertex or one of its edges uncovered
        certify = protrusion.decide_tw_masks

        def corrupt(*args):
            cert = certify(*args)
            if cert is not None:
                cert[1][0] &= cert[1][0] - 1
            return cert

        monkeypatch.setattr(protrusion, "decide_tw_masks", corrupt)
        for kind, pid in self.RUNS[:2]:
            with pytest.raises(ValueError, match="invalid tree decomposition"):
                self.run(kind, pid)


class TestVerifyKernel:
    def test_agreement_reported(self):
        g = generate(parse_family("path:13"))
        inst = ProblemInstance(g, 3, VC)
        out, _ = meta_kernelize(inst, cfg())
        rep = verify_kernel(inst, out)
        assert rep["agreement"] is True

    def test_corrupted_kernel_flagged(self):
        g = generate(parse_family("path:9"))
        inst = ProblemInstance(g, 4, VC)  # YES: vc(P9) = 4
        bogus = ProblemInstance(Graph.from_edges(2, [(0, 1)]), 0, VC)  # NO
        rep = verify_kernel(inst, bogus)
        assert rep["agreement"] is False

    def test_oversize_is_unverifiable(self):
        g = generate(parse_family("path:30"))
        inst = ProblemInstance(g, 3, VC)
        rep = verify_kernel(inst, inst)
        assert rep["agreement"] is None
        assert "unverifiable" in rep["note"]

