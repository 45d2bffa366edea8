"""Command-line entry point: kernelize, verify, gen."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .engine import EngineConfig, meta_kernelize, verify_kernel
from .errors import EdgeListParseError, OracleCapExceeded, TooLargeForExactTreewidth
from .graph import generate, parse_edge_list, parse_family, write_edge_list
from .problems import PROBLEM_IDS, ProblemInstance, get_problem

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CAPS = 3


def _load_graph(args):
    if args.input and args.family:
        raise EdgeListParseError("give only one of --input and --family")
    if args.input:
        with open(args.input, encoding="utf-8") as fh:
            return parse_edge_list(fh.read())
    if args.family:
        return generate(parse_family(args.family, seed=args.seed))
    raise EdgeListParseError("one of --input or --family is required")


def _spec(args):
    return get_problem(args.problem, r=getattr(args, "r", None), s=getattr(args, "s", None))


def _config(args):
    return EngineConfig(t=args.t, size_threshold=args.size_threshold, cache_path=args.cache)


def cmd_kernelize(args) -> int:
    g = _load_graph(args)
    spec = _spec(args)
    inst = ProblemInstance(g, args.k, spec)
    start = time.monotonic()
    out, log = meta_kernelize(inst, _config(args))
    wall_ms = int((time.monotonic() - start) * 1000)
    report = {
        "input": {"n": g.n, "m": g.m, "k": args.k},
        "output": {"n": out.graph.n, "m": out.graph.m, "k": out.k},
        "steps": log.steps,
        "warnings": log.warnings,
        "wall_ms": wall_ms,
    }
    text = json.dumps(report, indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(write_edge_list(out.graph) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    with open(args.kernel, encoding="utf-8") as fh:
        gk = parse_edge_list(fh.read())
    spec = _spec(args)
    kernel_k = args.kernel_k if args.kernel_k is not None else args.k
    report = verify_kernel(
        ProblemInstance(g, args.k, spec), ProblemInstance(gk, kernel_k, spec)
    )
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_gen(args) -> int:
    g = generate(parse_family(args.family, seed=args.seed))
    text = write_edge_list(g) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _add_problem_args(p):
    p.add_argument("--problem", required=True, choices=PROBLEM_IDS)
    p.add_argument("--r", type=int, default=None, help="radius for scattered; ds takes only 1")
    p.add_argument("--s", type=int, default=None, help="cycle-length bound for sct")


def _add_engine_args(p):
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--size-threshold", type=int, default=None, dest="size_threshold")
    p.add_argument("--cache", default=None, help="replacement answer file; changes no kernel")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="protkern")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernelize", help="reduce an instance")
    _add_problem_args(p)
    p.add_argument("--k", type=int, required=True)
    _add_engine_args(p)
    p.add_argument("--input", default=None)
    p.add_argument("--family", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.add_argument("--out", default=None, help="write the kernel graph here")
    p.set_defaults(fn=cmd_kernelize)

    p = sub.add_parser("verify", help="compare decisions of instance and kernel")
    _add_problem_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kernel-k", type=int, default=None, dest="kernel_k")
    p.add_argument("--input", required=True)
    p.add_argument("--kernel", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="write a family graph as an edge list")
    p.add_argument("--family", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gen)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OracleCapExceeded, TooLargeForExactTreewidth) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPS
    except (EdgeListParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
