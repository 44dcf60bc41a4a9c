"""One benchmark worker process: set up, run timed passes, check them.

``run.py`` starts workers one after another; each prints one JSON line
with its set-up time, its timed passes and their output checks:

1. **set-up** (``setup_s``): from process start -- ``run.py`` passes its
   spawn time -- through ``import repro`` and, for the serving
   workloads, engine/fleet construction and planning the palette;
2. **inputs**: generated from ``--seed``, outside every timed region,
   with the expected outputs computed by the benchmark's own
   ``conv2d_reference`` call;
3. **timed passes**: for the serving workloads, one untimed warm-up
   replay, then warm replays until ``--budget`` seconds are spent;
   ``paper_repro`` is one cold pass by definition;
4. **checks** after each pass, outside its timed region.

``--budget 0`` stops after set-up: ``run.py`` uses such workers to
sample ``setup_s`` more than once per run.

Run it through ``run.py``; it is not a user entry point.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

from spans import (CHECK_ROOT, PASS_ROOT, SETUP_ROOT, WARMUP_ROOT,
                   SpanRecorder, fold, install_layer_spans)

ROOT = Path(__file__).resolve().parent.parent
_perf = time.perf_counter

SERVE_REQUESTS = 2000
FLEET_TAIL_SHAPES = 160
FLEET_TAIL_REPEATS = 9           # requests per tail shape
FLEET_PALETTE_REPEATS = 141      # per palette shape: about half the trace
FLEET_RATE_HZ = 20_000.0
FLEET_PRIORITY_MIX = {"critical": 1, "standard": 6, "batch": 3}
FLEET_DEADLINE_BUDGET_S = 2e-3
#: Tolerance of the fastsim-vs-reference check, fixed from float32
#: accumulation over C*K*K = 576 terms (the general-kernel tests' value).
FASTSIM_RTOL = FASTSIM_ATOL = 1e-3


def _digest(arrays) -> str:
    h = hashlib.blake2b(digest_size=8)
    for array in arrays:
        h.update(array.tobytes())
    return h.hexdigest()


def _fingerprint(array):
    """Shape, dtype and a 128-bit hash of the bytes: equal fingerprints
    mean bit-identical arrays, without holding a second copy."""
    return (array.shape, array.dtype.str,
            hashlib.blake2b(array.tobytes(), digest_size=16).digest())


def _expected_outputs(requests):
    """Fingerprints of the benchmark's own reference outputs."""
    from repro.conv.reference import conv2d_reference

    return [_fingerprint(conv2d_reference(r.image, r.filters,
                                          r.problem.padding,
                                          problem=r.problem))
            for r in requests]


def _check_responses(requests, responses, expected):
    """Failures per request: unanswered, late, or not bit-identical."""
    failed = 0
    for request, response, want in zip(requests, responses, expected):
        if (response is None
                or _fingerprint(response.output) != want
                or (request.deadline_s is not None
                    and response.completed_s > request.deadline_s)):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# serve_classic: one ServeEngine, 6-shape palette, warm replays
# ----------------------------------------------------------------------

class ServeClassic:
    repeatable = True

    def setup(self):
        from repro.serve import DEFAULT_SERVING_SHAPES, ServeEngine, plan_key

        self.engine = ServeEngine()
        self.plans = {
            plan_key(shape, self.engine.arch):
                self.engine.dispatcher.plan(shape)
            for shape in DEFAULT_SERVING_SHAPES}

    def inputs(self, seed):
        from repro.serve import synthetic_trace

        self.requests = synthetic_trace(SERVE_REQUESTS, seed=seed)
        self.expected = _expected_outputs(self.requests)

    def prepare(self):
        """A warm engine for the next replay (the set-up one first)."""
        from repro.serve import ServeEngine

        engine, self.engine = self.engine, None
        if engine is None:
            engine = ServeEngine()
            for key, plan in self.plans.items():
                engine.plan_cache.put(key, plan)
        self.before = engine.plan_cache.stats()
        return engine

    def run(self, engine):
        return engine.serve_trace(self.requests)

    def check(self, engine, responses):
        cache = engine.plan_cache.stats()
        stats = engine.stats()
        return {
            "results": len(self.requests),
            "failed": _check_responses(self.requests, responses,
                                       self.expected),
            "digest": _digest(r.output for r in responses),
            "modeled_p50_ms": stats["latency_p50_s"] * 1e3,
            "modeled_p99_ms": stats["latency_p99_s"] * 1e3,
            "props": {
                "requests": len(self.requests),
                "distinct_shapes": len({r.problem for r in self.requests}),
                "tail_requests": 0,
                "batches": len({r.batch_id for r in responses}),
                "local_hits": cache["hits"] - self.before["hits"],
                "local_lookups": cache["hits"] + cache["misses"]
                - self.before["hits"] - self.before["misses"],
                "backends": Counter(r.backend for r in responses),
            },
        }


# ----------------------------------------------------------------------
# fleet_longtail: 4-replica fleet, mixed palette + seeded long tail
# ----------------------------------------------------------------------

def _tail_shapes(rng, exclude):
    """Distinct classic square shapes: every (C, F, K) of the grid in
    turn, heights spread evenly over 20-96 and jittered by the seed, so
    the tail's total work hardly depends on the seed."""
    from repro.conv.tensors import ConvProblem

    grid = list(itertools.product((1, 2, 4, 8, 16), (4, 8, 16), (3, 5)))
    tail = []
    for i in range(FLEET_TAIL_SHAPES):
        channels, filters, kernel_size = grid[i % len(grid)]
        base = 20 + i * 76 // (FLEET_TAIL_SHAPES - 1)
        while True:
            height = min(96, max(20, base + int(rng.integers(-3, 4))))
            shape = ConvProblem.square(height, kernel_size,
                                       channels=channels, filters=filters)
            if shape not in exclude and shape not in tail:
                break
        tail.append(shape)
    return tail


def _fleet_trace(seed):
    """The palette and the tail with exact request counts, in seeded
    order, with exponential arrivals, a priority mix and deadlines."""
    import numpy as np

    from repro.serve import PRIORITY_CLASSES, ConvRequest
    from repro.serve.trace import SHAPE_FAMILIES

    rng = np.random.default_rng(seed)
    palette = SHAPE_FAMILIES["mixed"]
    tail = _tail_shapes(rng, set(palette))
    shapes = (list(palette) * FLEET_PALETTE_REPEATS
              + tail * FLEET_TAIL_REPEATS)
    classes = [c for c in PRIORITY_CLASSES if c in FLEET_PRIORITY_MIX]
    weights = np.array([FLEET_PRIORITY_MIX[c] for c in classes], float)
    clock = 0.0
    requests = []
    for i, index in enumerate(rng.permutation(len(shapes))):
        problem = shapes[index]
        clock += float(rng.exponential(1.0 / FLEET_RATE_HZ))
        image, filters = problem.random_instance(seed=seed + 1000 * i)
        requests.append(ConvRequest(
            req_id=i, problem=problem, image=image, filters=filters,
            arrival_s=clock, seed=seed + 1000 * i,
            priority=classes[rng.choice(len(classes),
                                        p=weights / weights.sum())],
            deadline_s=clock + FLEET_DEADLINE_BUDGET_S))
    return requests, set(tail)


class FleetLongtail:
    repeatable = True

    def setup(self):
        self.fleet = self._fleet()

    @staticmethod
    def _fleet():
        from repro.fleet import FleetConfig, FleetEngine
        from repro.serve.trace import SHAPE_FAMILIES

        fleet = FleetEngine(FleetConfig(replicas=4))
        for shape in SHAPE_FAMILIES["mixed"]:
            fleet.plan_for(shape)
        return fleet

    def inputs(self, seed):
        self.requests, self.tail = _fleet_trace(seed)
        self.expected = _expected_outputs(self.requests)

    def prepare(self):
        """A fresh fleet (the set-up one first) whose plan caches hold
        only the palette, so every replay plans the tail."""
        fleet, self.fleet = self.fleet, None
        if fleet is None:
            fleet = self._fleet()
        self.before = (fleet.shared_cache.stats(), fleet.router.stats())
        return fleet

    def run(self, fleet):
        return fleet.serve_trace(self.requests)

    def check(self, fleet, result):
        from repro.serve import plan_key

        shared_before, router_before = self.before
        shared = fleet.shared_cache.stats()
        router = fleet.router.stats()
        stats = fleet.stats()
        shared_hits = shared["hits"] - shared_before["hits"]
        shared_lookups = shared_hits + shared["misses"] \
            - shared_before["misses"]
        # A fleet-local lookup happens once per distinct shape a replica
        # serves; it misses exactly when it falls through to the shared
        # tier.
        local_lookups = len({
            (replica, plan_key(r.problem, fleet.config.arch))
            for r, replica in zip(self.requests, result.assignments)
            if replica is not None})
        served = [r for r in result.responses if r is not None]
        return {
            "results": len(self.requests),
            "failed": _check_responses(self.requests, result.responses,
                                       self.expected),
            "digest": _digest(r.output for r in served),
            "modeled_p50_ms": stats["latency_p50_s"] * 1e3,
            "modeled_p99_ms": stats["latency_p99_s"] * 1e3,
            "props": {
                "requests": len(self.requests),
                "distinct_shapes": len({r.problem for r in self.requests}),
                "tail_requests": sum(r.problem in self.tail
                                     for r in self.requests),
                "batches": len({
                    (replica, r.batch_id) for r, replica
                    in zip(result.responses, result.assignments)
                    if r is not None}),
                "local_hits": local_lookups - shared_lookups,
                "local_lookups": local_lookups,
                "shared_hits": shared_hits,
                "shared_lookups": shared_lookups,
                "routed_home": router["affinity_hits"]
                - router_before["affinity_hits"],
                "routed": router["affinity_hits"] + router["spills"]
                - router_before["affinity_hits"] - router_before["spills"],
                "shed": result.shed_count,
                "backends": Counter(r.backend for r in served),
            },
        }


# ----------------------------------------------------------------------
# paper_repro: one cold regeneration of the paper's results
# ----------------------------------------------------------------------

class PaperRepro:
    repeatable = False           # cold by definition: one pass a process

    def setup(self):
        import repro.bench.claims  # noqa: F401  (import is the set-up)
        import repro.core.dse  # noqa: F401
        import repro.gpu.fastsim  # noqa: F401

    def inputs(self, seed):
        from repro.conv.tensors import ConvProblem

        special = ConvProblem.square(1026, 3, channels=1, filters=8)
        image, filters = special.random_instance(seed=seed)
        self.special = (image[0], filters[:, 0])
        general = ConvProblem.square(130, 3, channels=64, filters=64)
        self.general = general.random_instance(seed=seed + 1)

    def prepare(self):
        return None

    def run(self, _):
        from repro.bench import claims
        from repro.core import dse
        from repro.core.config import BEST_SPECIAL_CONFIG, TABLE1_CONFIGS
        from repro.gpu.fastsim import FastGeneralKernel, FastSpecialKernel

        out = {"claims": claims.verify_claims(),
               "table1": dse.reproduce_table1()}
        sim_s = 0.0
        for case, kernel, (image, filters) in (
                ("special", FastSpecialKernel(config=BEST_SPECIAL_CONFIG),
                 self.special),
                ("general", FastGeneralKernel(config=TABLE1_CONFIGS[3]),
                 self.general)):
            start = _perf()
            out[case] = kernel.run_traced(image, filters)
            sim_s += _perf() - start
        out["sim_s"] = sim_s
        return out

    def check(self, _, out):
        import numpy as np

        from repro.conv.reference import conv2d_reference
        from repro.gpu.arch import KEPLER_K40M
        from repro.gpu.timing import TimingModel

        claim_results = out["claims"]
        failed = sum(not result.supported for _, result in claim_results)
        rows = out["table1"]
        failed += sum(not (row.ours is not None and row.ours_gflops > 0)
                      for row in rows)
        failed += len(rows) != 3
        events = 0.0
        modeled = {}
        outputs = []
        for case, (image, filters) in (("special", self.special),
                                       ("general", self.general)):
            output, cost = out[case]
            outputs.append(output)
            want = conv2d_reference(image, filters)
            failed += not (output.shape == want.shape and np.allclose(
                output, want, rtol=FASTSIM_RTOL, atol=FASTSIM_ATOL))
            led = cost.ledger
            events += (led.smem_requests + led.cmem_requests
                       + led.gmem_read_transactions
                       + led.gmem_write_transactions)
            prefix = "gpu.modeled.%s." % case
            modeled[prefix + "gmem_transactions"] = (
                led.gmem_read_transactions + led.gmem_write_transactions)
            modeled[prefix + "smem_cycles"] = led.smem_cycles
            modeled[prefix + "smem_conflict_overhead"] = \
                led.smem_conflict_overhead
            modeled[prefix + "kernel_us"] = \
                TimingModel(KEPLER_K40M).evaluate(cost).total * 1e6
        text = json.dumps(
            [[claim.claim_id, result.measured, result.supported]
             for claim, result in claim_results]
            + [[row.kernel_size, repr(row.ours), row.ours_gflops]
               for row in rows]).encode()
        h = hashlib.blake2b(text, digest_size=8)
        h.update(_digest(outputs).encode())
        results = len(claim_results) + 3 + 2
        return {
            "results": results,
            "failed": failed,
            "digest": h.hexdigest(),
            "sim_events": events,
            "sim_s": out["sim_s"],
            "props": {"modeled": modeled},
        }


WORKLOADS = {
    "serve_classic": ServeClassic,
    "fleet_longtail": FleetLongtail,
    "paper_repro": PaperRepro,
}


# ----------------------------------------------------------------------
# Slowdown injection (the benchmark's self-test)
# ----------------------------------------------------------------------

def _spin(seconds: float) -> None:
    end = _perf() + seconds
    while _perf() < end:
        pass


def install_delay(target: str, seconds: float) -> None:
    """Add a fixed busy delay to one layer's public function, at the
    call site the program uses: ``conv`` is ``conv2d_reference`` as
    ``repro.serve.dispatch`` calls it, ``build`` is
    ``Dispatcher.build_plan``."""
    import repro.serve.dispatch as dispatch

    owner, attr = {"conv": (dispatch, "conv2d_reference"),
                   "build": (dispatch.Dispatcher, "build_plan")}[target]
    original = getattr(owner, attr)

    def delayed(*args, **kwargs):
        _spin(seconds)
        return original(*args, **kwargs)

    setattr(owner, attr, delayed)


# ----------------------------------------------------------------------

def _obs_dse_counts():
    from repro.obs import get_registry

    metric = get_registry().get("dse_candidates_total")
    counts = Counter()
    if metric is not None:
        for labels, value in metric.series():
            counts[labels["outcome"]] += value
    return counts


def _run_pass(workload, recorder, timed: bool) -> dict:
    """One pass and its check.  Traced, every span lies under a root:
    ``PASS_ROOT`` (timed), ``WARMUP_ROOT`` or ``CHECK_ROOT``."""
    state = workload.prepare()
    gc.collect()
    counts_before = Counter(recorder.counts) if recorder else None
    dse_before = _obs_dse_counts()
    if recorder:
        root = recorder.open(PASS_ROOT if timed else WARMUP_ROOT)
    start = _perf()
    out = workload.run(state)
    wall = _perf() - start
    dse = _obs_dse_counts() - dse_before
    if recorder:
        recorder.close(root)
        counts = dict(recorder.counts - counts_before)
        root = recorder.open(CHECK_ROOT)
    record = workload.check(state, out)
    if recorder:
        recorder.close(root)
        record["counts"] = counts
    record["wall_s"] = wall
    record["props"]["dse_evaluated"] = dse["ok"] + dse["rejected"]
    record["props"]["dse_ranked"] = dse["ok"]
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="timed seconds to spend; 0 only sets up")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default=None,
                        help="trace layer spans and write them here")
    parser.add_argument("--inject", default=None,
                        help="TARGET=SECONDS slowdown (conv or build)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise SystemExit("imported repro from %s, not this checkout"
                         % repro.__file__)
    workload = WORKLOADS[args.workload]()
    if args.inject:
        target, seconds = args.inject.split("=")
        install_delay(target, float(seconds))
    recorder = None
    if args.spans:
        recorder = SpanRecorder()
        install_layer_spans(recorder)
        setup_span = recorder.open(SETUP_ROOT)
    workload.setup()
    setup_s = time.time() - args.spawned_at
    if recorder is not None:
        recorder.close(setup_span)

    warmups, passes = [], []
    if args.budget > 0:
        workload.inputs(args.seed)
        # A repeatable workload's first replay warms the process (lazy
        # imports, memo caches); it is checked like the others, not timed.
        if workload.repeatable:
            warmups.append(_run_pass(workload, recorder, timed=False))
        while not passes or (workload.repeatable and sum(
                p["wall_s"] for p in passes) < args.budget):
            passes.append(_run_pass(workload, recorder, timed=True))

    result = {
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "warmups": warmups,
    }
    if recorder is not None:
        result["pass_wall_s"], result["layers"] = fold(recorder.spans,
                                                       PASS_ROOT)
        result["setup_wall_s"], result["setup_layers"] = fold(
            recorder.spans, SETUP_ROOT)
        recorder.write(args.spans)
    print(json.dumps(result, default=dict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
