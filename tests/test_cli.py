import json

import pytest

from protkern.cli import EXIT_CAPS, EXIT_OK, EXIT_PARSE, main
from protkern.graph import parse_edge_list


def run(*argv):
    return main(list(argv))


class TestGen:
    def test_writes_edge_list(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert run("gen", "--family", "path:5", "--out", str(out)) == EXIT_OK
        g = parse_edge_list(out.read_text())
        assert g.n == 5 and g.m == 4

    def test_stdout_default(self, capsys):
        assert run("gen", "--family", "cycle:4") == EXIT_OK
        assert capsys.readouterr().out.startswith("4 4\n")

    def test_bad_family(self, capsys):
        assert run("gen", "--family", "nonsense:1") == EXIT_PARSE

    @pytest.mark.parametrize("family", ["path", "path:3,4", "star-of-paths:2", "grid:a,b", "grid:1e3,2"])
    def test_wrong_parameter_count(self, capsys, family):
        assert run("gen", "--family", family) == EXIT_PARSE
        assert "takes the form" in capsys.readouterr().err


class TestKernelize:
    def test_family_input_with_report(self, tmp_path):
        rep = tmp_path / "r.json"
        kern = tmp_path / "k.txt"
        code = run(
            "kernelize", "--problem", "vc", "--k", "3",
            "--family", "path:40", "--report", str(rep), "--out", str(kern),
        )
        assert code == EXIT_OK
        data = json.loads(rep.read_text())
        assert data["input"]["n"] == 40
        assert data["output"]["n"] < 40
        assert len(data["steps"]) > 0
        out_graph = parse_edge_list(kern.read_text())
        assert out_graph.n == data["output"]["n"]

    def test_file_input(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        run("gen", "--family", "path:12", "--out", str(src))
        code = run("kernelize", "--problem", "ds", "--k", "2", "--input", str(src))
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["input"] == {"n": 12, "m": 11, "k": 2}

    def test_missing_input_is_parse_error(self, capsys):
        assert run("kernelize", "--problem", "vc", "--k", "1") == EXIT_PARSE

    def test_input_and_family_is_parse_error(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        run("gen", "--family", "path:12", "--out", str(src))
        code = run(
            "kernelize", "--problem", "vc", "--k", "2", "--input", str(src), "--family", "path:5"
        )
        assert code == EXIT_PARSE
        assert "only one of --input and --family" in capsys.readouterr().err

    def test_parse_error_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a graph")
        code = run("kernelize", "--problem", "vc", "--k", "1", "--input", str(bad))
        assert code == EXIT_PARSE

    def test_cache_of_another_version_is_argument_error(self, tmp_path, capsys):
        cache = tmp_path / "reps.tsv"
        cache.write_text("#protkern-repcache 0\n")
        code = run(
            "kernelize", "--problem", "vc", "--k", "3", "--family", "path:40",
            "--cache", str(cache),
        )
        assert code == EXIT_PARSE
        assert "not in format" in capsys.readouterr().err

    def test_cache_that_is_a_directory_is_argument_error(self, tmp_path, capsys):
        code = run(
            "kernelize", "--problem", "vc", "--k", "3", "--family", "path:30",
            "--cache", str(tmp_path),
        )
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "args",
        [
            ["--problem", "ds", "--r", "-1", "--size-threshold", "11"],
            ["--problem", "ds", "--r", "0"],
            ["--problem", "vc", "--r", "2"],
            ["--problem", "is", "--s", "3"],
            ["--problem", "vc", "--t", "0"],
            ["--problem", "vc", "--size-threshold", "10"],
            ["--problem", "sct", "--s", "2"],
            ["--problem", "ds", "--r", "2"],
        ],
    )
    def test_bad_parameter_is_argument_error(self, tmp_path, capsys, args):
        # a ds radius below 1 can turn this NO instance into a YES kernel, ds
        # has no table for a radius above 1, a protrusion needs width at least
        # 1, a part no larger than two c = 5 windows is never split, and sct
        # has no cycle shorter than 3
        src = tmp_path / "g.txt"
        run("gen", "--family", "path:14", "--out", str(src))
        code = run("kernelize", *args, "--k", "12", "--input", str(src))
        assert code == EXIT_PARSE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--r-search", "--split-c", "--budget"])
    def test_removed_engine_flag_is_usage_error(self, capsys, flag):
        # cut sets of up to 2t vertices, windows of c = 5 and a search budget
        # of 20000 are fixed, not settings
        with pytest.raises(SystemExit) as exc:
            run("kernelize", "--problem", "vc", "--k", "3", "--family", "path:14", flag, "2")
        assert exc.value.code == 2  # argparse's usage error
        assert "unrecognized arguments" in capsys.readouterr().err


class TestVerify:
    def test_agreement(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        kern = tmp_path / "k.txt"
        rep = tmp_path / "r.json"
        run("gen", "--family", "path:13", "--out", str(src))
        run(
            "kernelize", "--problem", "vc", "--k", "3",
            "--input", str(src), "--out", str(kern), "--report", str(rep),
        )
        kernel_k = json.loads(rep.read_text())["output"]["k"]
        capsys.readouterr()
        code = run(
            "verify", "--problem", "vc", "--k", "3",
            "--kernel-k", str(kernel_k),
            "--input", str(src), "--kernel", str(kern),
        )
        assert code == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["agreement"] is True

    def test_cap_is_noted_not_fatal(self, tmp_path, capsys):
        src = tmp_path / "g.txt"
        run("gen", "--family", "path:30", "--out", str(src))
        capsys.readouterr()
        code = run(
            "verify", "--problem", "vc", "--k", "3",
            "--input", str(src), "--kernel", str(src),
        )
        assert code == EXIT_OK
        assert "unverifiable" in json.loads(capsys.readouterr().out)["note"]
