"""Closed-loop kernelization benchmark for protkern.

Run from the repository root, for example:

    python3 perfbench/run.py --workload path-splice --seed 1 --seconds 40 --trace 0

or, for every end-to-end metric of every workload:

    for w in path-splice ladder-scan corpus-sig; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 40 --trace 0
    done

One process and one thread call ``meta_kernelize`` back to back over the
workload's batch (one pass), pass after pass, while the next pass is expected
to end within ``--seconds``.  Every call is checked against the original
instance's answer outside the timed region; a failing call still counts in the
timings.

Reported times are scaled to a nominal machine speed (see ``speed.py``); the
run record keeps the unscaled figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans of the
traced ones (see ``spans.py``); the spans of the latest traced run of each
workload are written to ``perfbench/out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the run record: platform, seed, unscaled times and kernel fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import ROOT, TRACED, Tracer
from speed import Clock

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / "perfbench" / "out"
SETUP_REPEATS = 7

# traced functions reported as calls and self time; the root is reported as
# the engine, and the generator as yields and self time
LAYERS = [
    name for name in (f"{mod}.{fn}" for mod, fn in TRACED)
    if name not in (ROOT, "boundaried.enumerate_boundaried")
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit read from .git without starting git; 'unknown' outside a clone."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def set_up(workload: str, seed: int):
    """Import protkern afresh, then generate the batch and its original answers."""
    for name in [m for m in sys.modules if m.partition(".")[0] in ("protkern", "workloads")]:
        del sys.modules[name]
    import protkern.engine as engine
    import workloads

    return engine, workloads, workloads.WORKLOADS[workload](seed)


def run_pass(engine, workloads, calls, checker) -> dict:
    """Kernelize the batch once, timing every call.

    Outputs are checked and fingerprinted here, then dropped, so that peak
    memory does not grow with the number of passes.
    """
    instances = [c.instance() for c in calls]
    clock = Clock()
    outputs = []
    for call, inst in zip(calls, instances):
        with clock.timed():
            try:
                out = engine.meta_kernelize(inst, call.cfg)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = None
        outputs.append(out)
    latencies = clock.finish()
    failed = sum(
        1 for call, out in zip(calls, outputs) if out is None or not checker.ok(call, out[0])
    )
    done = [out for out in outputs if out is not None]
    return {
        "failed": failed,
        "fingerprint": workloads.fingerprint(done),
        "steps": sum(len(log.steps) for _, log in done),
        "warnings": sum(len(log.warnings) for _, log in done),
        "latencies": latencies,
        "wall_s": sum(latencies),
        "raw_wall_s": sum(clock.raw),
    }


def end_to_end(passes, setup_s, kernel_vertices) -> dict:
    lat_ms = [x * 1000 for p in passes for x in p["latencies"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "latency_p50_ms": (quantile(lat_ms, 50), "ms"),
        "latency_p95_ms": (quantile(lat_ms, 95), "ms"),
        "kernel_vertices": (kernel_vertices, "count"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(summary, untraced, traced) -> dict:
    """Per-layer figures per traced pass; times scaled like the end-to-end ones."""
    runs = len(traced)
    scale = statistics.median(p["wall_s"] / p["raw_wall_s"] for p in traced)
    calls, outcomes = summary["calls"], summary["outcomes"]
    self_s = {name: x * scale for name, x in summary["self_s"].items()}
    out = {}

    def put(name, value, unit):
        out[name] = (value / runs, unit)

    def share(num, den):
        return num / den if den else 0.0

    steps = sum(p["steps"] for p in traced)
    put("engine.self_s", self_s[ROOT], "s")
    put("engine.cutsets", summary["cutsets"], "count")
    put("engine.steps", steps, "count")
    out["engine.step_yield"] = (share(steps, summary["cutsets"]), "ratio")
    put("engine.warnings", sum(p["warnings"] for p in traced), "count")
    for name in LAYERS:
        put(f"{name}.calls", calls[name], "count")
        put(f"{name}.self_s", self_s[name], "s")
    tw = outcomes["treewidth.decide_tw_leq"]
    out["treewidth.decide_tw_leq.reject_share"] = (
        share(tw["none"], calls["treewidth.decide_tw_leq"]), "ratio"
    )
    put("treewidth.decide_tw_leq.cap_skips", tw["cap_skip"], "count")
    out["problems.compute_signature.repeat_share"] = (
        share(summary["signature_repeats"], calls["problems.compute_signature"]), "ratio"
    )
    put("boundaried.enumerate_boundaried.yields", summary["yields"], "count")
    put("boundaried.enumerate_boundaried.self_s", self_s["boundaried.enumerate_boundaried"], "s")
    fr = outcomes["replace.find_replacement"]
    for status in ("found", "found-cache", "irreducible", "budget"):
        put(f"replace.find_replacement.{status.replace('-', '_')}", fr[status], "count")
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_share"] = (traced_wall / untraced_wall - 1, "ratio")
    put("trace.spans", summary["spans"], "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "protkern" / "__init__.py").is_file():
        print(f"perfbench: no protkern sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup_clock = Clock()
    for _ in range(SETUP_REPEATS):
        with setup_clock.timed():
            engine, workloads, calls = set_up(args.workload, args.seed)
    setups = setup_clock.finish()

    checker = workloads.Checker()
    tracer = Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.begin_pass()
            tracer.install()
        t = time.perf_counter()
        try:
            passes.append(run_pass(engine, workloads, calls, checker) | {"traced": traced})
        finally:
            if traced:
                tracer.uninstall()
        now = time.perf_counter()
        enough = len(passes) >= (2 if tracer else 1)
        if enough and (now - start) + (now - t) > args.seconds:
            break

    attempted = len(calls) * len(passes)
    failed = sum(p["failed"] for p in passes)
    fps = [p["fingerprint"] for p in passes]
    untraced = [p for p in passes if not p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "passes": len(passes),
        "calls_per_pass": len(calls),
        "failed_share": failed / attempted,
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in untraced),
        "raw_setup_s": statistics.median(setup_clock.raw),
        "fingerprint": fps[0],
        "fingerprint_stable": all(fp == fps[0] for fp in fps),
    }
    if tracer is None:
        metrics = end_to_end(untraced, statistics.median(setups), fps[0]["kernel_vertices"])
    else:
        summary = tracer.summary()
        metrics = per_layer(summary, untraced, [p for p in passes if p["traced"]])
        largest = sorted(summary["self_s"].items(), key=lambda kv: -kv[1])[:4]
        record["largest_raw_self_s"] = dict(largest)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_tsv(OUT / f"spans-{args.workload}.tsv")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
