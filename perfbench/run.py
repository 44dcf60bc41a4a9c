"""The repository benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload serve_classic --seed 1 --seconds 20 --trace 0

Workers (``worker.py``) run one after another, each in a fresh process
(see ``collect``), until ``--seconds`` of timed passes are spent and at
least three workers have set up.  End-to-end metrics are medians over
workers (``setup_s``, ``peak_rss_mb``) or over timed passes
(``host_rps``, ``reproduce_s``).  ``--trace 1`` adds traced workers
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object; the lines before it are the human-readable
report.  Any failed output check makes the exit code 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from spans import PASS_ROOT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

WORKLOADS = ("serve_classic", "fleet_longtail", "paper_repro")
#: Each of these runs a different program; a result under one is refused.
REFUSED_VARS = ("REPRO_CHAOS", "REPRO_AUDIT", "REPRO_SIM_HANDICAP",
                "REPRO_PROFILE")
STAMPED_VARS = ("REPRO_JOBS",) + REFUSED_VARS
MIN_WORKERS = 3
#: No pass-running worker starts after this many seconds, so a run
#: ends within 180 s.
START_GUARD_S = 100.0
WORKER_TIMEOUT_S = 150.0
BACKENDS = ("special", "general", "depthwise", "im2col", "implicit-gemm",
            "naive", "fft", "winograd")

END_TO_END = (("setup_s", "s"), ("host_rps", "req/s"),
              ("reproduce_s", "s"), ("peak_rss_mb", "MB"))

#: Layer self times: span name -> metric name.
SELF_TIMES = {
    "conv.reference": "conv.reference.self_s",
    "serve.engine": "serve.engine.self_s",
    "serve.batcher": "serve.batcher.self_s",
    "serve.stats": "serve.stats.self_s",
    "serve.dispatch.plan": "serve.dispatch.plan_self_s",
    "serve.dispatch.execute": "serve.dispatch.execute_self_s",
    "serve.dispatch.build": "serve.dispatch.build_self_s",
    "kernels.registry.available": "kernels.registry.available_s",
    "kernels.predict": "kernels.predict_s",
    "core.dse": "core.dse.self_s",
    "gpu.timing": "gpu.timing.self_s",
    "gpu.fastsim.trace": "gpu.fastsim.trace_s",
    "gpu.fastsim.run": "gpu.fastsim.functional_s",
    "bench.claims": "bench.claims.self_s",
    "fleet.engine": "fleet.engine.self_s",
    "fleet.admission": "fleet.admission.self_s",
    "fleet.shared_cache": "fleet.shared_cache.self_s",
    "parallel.executor": "parallel.executor.self_s",
}

MODELED = tuple(
    ("gpu.modeled.%s.%s" % (case, field), unit)
    for case in ("special", "general")
    for field, unit in (("gmem_transactions", "count"),
                        ("smem_cycles", "cycles"),
                        ("smem_conflict_overhead", "ratio"),
                        ("kernel_us", "us")))

#: Every per-layer metric of a traced run: (name, unit, better).
PER_LAYER = (
    tuple((metric, "s", "lower") for metric in SELF_TIMES.values())
    + (
        ("conv.reference.calls", "count", "lower"),
        ("conv.reference.mbytes", "MB", "lower"),
        ("serve.dispatch.builds", "count", "lower"),
        ("serve.dispatch.build_s", "s", "lower"),
        ("serve.plan_cache.hit_rate", "ratio", "higher"),
        ("serve.batch_size_mean", "count", "higher"),
        ("serve.modeled_p50_ms", "ms", "lower"),
        ("serve.modeled_p99_ms", "ms", "lower"),
        ("core.dse.candidates", "count", "lower"),
        ("core.dse.ranked_ratio", "ratio", "higher"),
        ("gpu.timing.evaluate_calls", "count", "lower"),
        ("gpu.fastsim.events", "count", "lower"),
        ("gpu.fastsim.events_per_s", "events/s", "higher"),
        ("fleet.shared_cache.hit_rate", "ratio", "higher"),
        ("fleet.router.affinity_hit_rate", "ratio", "higher"),
        ("fleet.admission.shed", "count", "lower"),
        ("parallel.executor.calls", "count", "lower"),
        ("obs.metrics.updates", "count", "lower"),
        ("bench.setup_builds", "count", "lower"),
        ("bench.setup_build_s", "s", "lower"),
        ("bench.traced_wall_s", "s", "lower"),
        ("bench.untraced_wall_s", "s", "lower"),
        ("bench.tracing_overhead_s", "s", "lower"),
        ("bench.unattributed_s", "s", "lower"),
        ("bench.coverage", "ratio", "higher"),
    )
    + tuple(("serve.dispatch.requests.%s" % b, "count", "higher")
            for b in BACKENDS)
    + tuple((name, unit, "lower") for name, unit in MODELED)
)


def _ratio(num, den):
    return num / den if den else 0.0


def provenance(seed: int) -> dict:
    """Where a result came from: tree, host, toolchain, seed, env."""
    sha = dirty = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        if top.returncode == 0 and Path(top.stdout.strip()) == ROOT:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT,
                capture_output=True, text=True, timeout=30).stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha, "dirty": dirty, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "seed": seed,
        "env": {var: os.environ.get(var) for var in STAMPED_VARS},
    }


def run_worker(args, index: int, traced: bool, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget)]
    spans = None
    if traced:
        spans = OUT_DIR / ("%s-seed%d-worker%d.spans.json"
                           % (args.workload, args.seed, index))
        cmd += ["--spans", str(spans)]
    if args.inject:
        cmd += ["--inject", args.inject]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker %d of %s failed with exit code %d"
                         % (index, args.workload, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    result["spans_file"] = spans and str(spans.relative_to(ROOT))
    return result


def collect(args) -> list:
    """Run workers until each flavour (untraced; traced with
    ``--trace 1``) has ``--seconds`` of timed passes and at least
    ``MIN_WORKERS`` untraced workers have measured set-up.

    A warm workload's first worker runs every pass it needs; later
    untraced workers only set up (``--budget 0``).  A cold workload
    runs one pass per worker.
    """
    started = time.perf_counter()
    workers = []

    def timed(traced):
        return sum(p["wall_s"] for w in workers if w["traced"] == traced
                   for p in w["passes"])

    flavours = (False, True) if args.trace else (False,)
    while any(timed(traced) < args.seconds for traced in flavours):
        if time.perf_counter() - started > START_GUARD_S:
            break
        for traced in flavours:
            left = args.seconds - timed(traced)
            if left > 0:
                workers.append(run_worker(args, len(workers), traced, left))
    while sum(not w["traced"] for w in workers) < MIN_WORKERS:
        workers.append(run_worker(args, len(workers), False, 0.0))
    return workers


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

def end_to_end(untraced) -> dict:
    passes = [p for w in untraced for p in w["passes"]]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in untraced),
        "host_rps": statistics.median(p["results"] / p["wall_s"]
                                      for p in passes),
        "reproduce_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in untraced
                                         if w["passes"]),
    }


def per_layer(workers) -> dict:
    """Per-pass means over the traced workers' passes."""
    traced = [w for w in workers if w["traced"]]
    untraced = [w for w in workers if not w["traced"]]
    n = sum(len(w["passes"]) for w in traced)
    layers = defaultdict(Counter)
    setup = defaultdict(Counter)
    counts = Counter()
    props = Counter()
    wall = 0.0
    for w in traced:
        wall += w["pass_wall_s"]
        for name, totals in w["layers"].items():
            layers[name].update(totals)
        for name, totals in w["setup_layers"].items():
            setup[name].update(totals)
        for p in w["passes"]:
            counts.update(p["counts"])
            props.update({k: v for k, v in p["props"].items()
                          if isinstance(v, (int, float))})
            props.update({"backend." + b: c
                          for b, c in p["props"].get("backends", {}).items()})
            props.update(p["props"].get("modeled", {}))
            props.update({"p50": p.get("modeled_p50_ms", 0.0),
                          "p99": p.get("modeled_p99_ms", 0.0)})
    untraced_passes = [p for w in untraced for p in w["passes"]]
    untraced_wall = statistics.fmean(p["wall_s"] for p in untraced_passes)
    metrics = {metric: layers[span]["self_s"] / n
               for span, metric in SELF_TIMES.items()}
    metrics.update({
        "conv.reference.calls": layers["conv.reference"]["calls"] / n,
        "conv.reference.mbytes": counts["conv.reference.bytes"] / 1e6 / n,
        "serve.dispatch.builds": layers["serve.dispatch.build"]["calls"] / n,
        "serve.dispatch.build_s":
            layers["serve.dispatch.build"]["total_s"] / n,
        "serve.plan_cache.hit_rate":
            _ratio(props["local_hits"], props["local_lookups"]),
        "serve.batch_size_mean": _ratio(props["requests"] - props["shed"],
                                        props["batches"]),
        "serve.modeled_p50_ms": props["p50"] / n,
        "serve.modeled_p99_ms": props["p99"] / n,
        "core.dse.candidates": props["dse_evaluated"] / n,
        "core.dse.ranked_ratio":
            _ratio(props["dse_ranked"], props["dse_evaluated"]),
        "gpu.timing.evaluate_calls": layers["gpu.timing"]["calls"] / n,
        "gpu.fastsim.events": counts["gpu.fastsim.events"] / n,
        "gpu.fastsim.events_per_s":
            _ratio(counts["gpu.fastsim.events"],
                   layers["gpu.fastsim.run"]["total_s"]),
        "fleet.shared_cache.hit_rate":
            _ratio(props["shared_hits"], props["shared_lookups"]),
        "fleet.router.affinity_hit_rate":
            _ratio(props["routed_home"], props["routed"]),
        "fleet.admission.shed": props["shed"] / n,
        "parallel.executor.calls": layers["parallel.executor"]["calls"] / n,
        "obs.metrics.updates": counts["obs.metrics.updates"] / n,
        "bench.setup_builds": _ratio(setup["serve.dispatch.build"]["calls"],
                                     len(traced)),
        "bench.setup_build_s": _ratio(
            setup["serve.dispatch.build"]["total_s"], len(traced)),
        "bench.traced_wall_s": wall / n,
        "bench.untraced_wall_s": untraced_wall,
        "bench.tracing_overhead_s": wall / n - untraced_wall,
        "bench.unattributed_s": layers[PASS_ROOT]["self_s"] / n,
        "bench.coverage": 1.0 - _ratio(layers[PASS_ROOT]["self_s"], wall),
    })
    for backend in BACKENDS:
        metrics["serve.dispatch.requests.%s" % backend] = \
            props["backend." + backend] / n
    for name, _ in MODELED:
        metrics[name] = props[name] / n
    return metrics


def input_report(passes) -> list:
    """The input properties a workload was chosen for, with their bases."""
    props = passes[0]["props"]
    if "requests" not in props:
        return ["  modeled: %s" % json.dumps(props["modeled"],
                                             sort_keys=True)]
    lines = [
        "  inputs: %d requests, %d distinct shapes, tail %d/%d requests"
        % (props["requests"], props["distinct_shapes"],
           props["tail_requests"], props["requests"]),
        "  mean batch size: %d served / %d batches = %.2f"
        % (props["requests"] - props.get("shed", 0), props["batches"],
           (props["requests"] - props.get("shed", 0)) / props["batches"]),
        "  local plan-cache hits: %d/%d" % (props["local_hits"],
                                            props["local_lookups"]),
    ]
    if "shared_lookups" in props:
        lines.append("  shared plan-cache hits: %d/%d; routed home %d/%d;"
                     " shed %d" % (props["shared_hits"],
                                   props["shared_lookups"],
                                   props["routed_home"], props["routed"],
                                   props["shed"]))
    lines.append("  requests per winning backend: %s"
                 % json.dumps(props["backends"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed seconds to spend per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", default=None, metavar="TARGET=SECONDS",
                        help="slowdown self-test: add a fixed delay to "
                             "each call of one layer (conv or build)")
    args = parser.parse_args(argv)

    for var in REFUSED_VARS:
        if os.environ.get(var):
            print("refusing to record: %s is set (%s=%r runs a different "
                  "program); unset it" % (var, var, os.environ[var]),
                  file=sys.stderr)
            return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("no repro package under %s; run from a checkout of the "
              "repository" % (ROOT / "src"), file=sys.stderr)
        return 2
    stamp = provenance(args.seed)
    print("provenance %s" % json.dumps(stamp, sort_keys=True))
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)

    workers = collect(args)
    passes = [p for w in workers for p in w["passes"]]
    checked = passes + [p for w in workers for p in w["warmups"]]
    attempted = sum(p["results"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    digests = Counter(p["digest"] for p in checked)
    # Every pass replays the same seeded inputs, so one digest is right.
    failed += len(checked) - max(digests.values())
    untraced = [w for w in workers if not w["traced"]]
    e2e = end_to_end(untraced)

    print("workload %s: %d workers, %d timed passes, %.1f s timed"
          % (args.workload, len(workers), len(passes),
             sum(p["wall_s"] for p in passes)))
    for name, unit in END_TO_END:
        print("  %-16s %12.6g %s" % (name, e2e[name], unit))
    timed = [p for w in untraced for p in w["passes"]]
    walls = sorted(p["wall_s"] for p in timed)
    print("  %-16s %.4g / %.4g / %.4g s (min / median / max of %d)"
          % ("pass walls", walls[0], statistics.median(walls), walls[-1],
             len(walls)))
    print("  %-16s %12.6g (%d failed / %d checked)"
          % ("failed_frac", failed / attempted, failed, attempted))
    for name in ("modeled_p50_ms", "modeled_p99_ms"):
        if name in timed[0]:
            print("  %-16s %12.6g ms" % (name, timed[0][name]))
    if "sim_events" in timed[0]:
        print("  %-16s %12.6g events/s" % ("sim_events_per_s",
              statistics.median(p["sim_events"] / p["sim_s"]
                                for p in timed)))
    print("  response digest: %s" % ", ".join(sorted(digests)))
    for line in input_report(passes):
        print(line)

    if args.trace:
        metrics = per_layer(workers)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print("  %s.unattributed_s %.6g s, coverage %.4f, tracing "
              "overhead %.6g s per pass"
              % (args.workload, metrics["bench.unattributed_s"],
                 metrics["bench.coverage"],
                 metrics["bench.tracing_overhead_s"]))
        summary = OUT_DIR / ("%s-seed%d.trace.json"
                             % (args.workload, args.seed))
        summary.write_text(json.dumps({
            "provenance": stamp, "workload": args.workload,
            "per_layer": metrics, "end_to_end": e2e,
            "spans_files": [w["spans_file"] for w in workers
                            if w["traced"]],
        }, indent=1, sort_keys=True) + "\n")
        print("  trace summary: %s" % summary.relative_to(ROOT))
    else:
        metrics = e2e
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
