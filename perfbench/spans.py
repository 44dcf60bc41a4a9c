"""Benchmark-side spans: wrappers around each layer's public functions.

The traced run never edits the program.  :func:`install_layer_spans`
replaces a layer's public function *at the call site the program uses*
(a class attribute, or a module global such as
``repro.serve.dispatch.conv2d_reference``) with a wrapper that records
one span per call.  Spans live in memory as ``[name, start, end,
parent, ident]`` rows and are written out once, when the worker exits.

A layer's self time is its spans' durations minus the time their child
spans cover; the root span of a timed pass keeps whatever no wrapped
layer claimed, which the report names ``bench.unattributed_s``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

_perf = time.perf_counter

#: Root span names: one timed pass; the set-up phase; the untimed
#: warm-up replay; the output check after a pass.
PASS_ROOT = "bench.pass"
SETUP_ROOT = "bench.setup"
WARMUP_ROOT = "bench.warmup"
CHECK_ROOT = "bench.check"


class SpanRecorder:
    """In-memory span log plus plain event counts."""

    def __init__(self):
        self.spans = []          # [name, start_s, end_s, parent, ident]
        self.counts = Counter()
        self._stack = []

    def open(self, name, ident=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if ident is None and parent >= 0:
            ident = self.spans[parent][4]
        self.spans.append([name, _perf(), None, parent, ident])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = _perf()
        if self._stack.pop() != index:
            raise RuntimeError("span %r closed out of order"
                               % self.spans[index][0])

    def wrap(self, owner, attr, name, ident=None, on_return=None):
        """Record a span around every call of ``owner.attr``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.open(name, ident(*args) if ident else None)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(index)
            if on_return is not None:
                on_return(self.counts, result, args)
            return result

        setattr(owner, attr, traced)

    def count_calls(self, owner, attr, key):
        """Count calls of ``owner.attr`` without a span."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent",
                                  "id"],
                       "spans": self.spans}, fh, default=str)


# ----------------------------------------------------------------------
# Folding
# ----------------------------------------------------------------------

def fold(spans, root=PASS_ROOT):
    """Per-layer totals over every ``root`` span and its descendants.

    Returns ``(wall_s, layers)`` where ``wall_s`` sums the root spans'
    durations and ``layers`` maps a span name to ``{"calls", "self_s",
    "total_s"}``.  ``total_s`` counts only the outermost span of a
    name, so recursion never double-counts.  The root's own self time
    is under ``layers[root]``; every layer's ``self_s`` plus it sums to
    ``wall_s``.
    """
    children_s = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children_s[parent] += end - start
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0,
                                  "total_s": 0.0})
    wall = 0.0
    ancestors = {}               # span under a root -> its ancestors' names
    for index, (name, start, end, parent, _) in enumerate(spans):
        if parent < 0 and name == root:
            ancestors[index] = frozenset()
            wall += end - start
        elif parent in ancestors:
            ancestors[index] = ancestors[parent] | {spans[parent][0]}
        else:
            continue
        layer = layers[name]
        layer["calls"] += 1
        layer["self_s"] += (end - start) - children_s[index]
        if name not in ancestors[index]:
            layer["total_s"] += end - start
    return wall, dict(layers)


# ----------------------------------------------------------------------
# Layer wiring
# ----------------------------------------------------------------------

# Span ids stay cheap objects; ``SpanRecorder.write`` stringifies them.

def _admitted_request(_controller, request):
    return ("req", request.req_id)


def _batched_request(_batcher, _key, request, *rest):
    return ("req", request.req_id)


def _batch(_dispatcher, _plan, requests, *rest):
    return ("batch", requests[0].req_id, len(requests))


def _shape(_owner, problem, *rest):
    return problem


def _conv_bytes(counts, output, args):
    image, filters = args[0], args[1]
    counts["conv.reference.bytes"] += image.nbytes + filters.nbytes \
        + output.nbytes


def _sim_events(counts, result, args):
    led = result[1].ledger
    counts["gpu.fastsim.events"] += (
        led.smem_requests + led.cmem_requests
        + led.gmem_read_transactions + led.gmem_write_transactions)


def install_layer_spans(recorder: SpanRecorder) -> None:
    """Wrap every measured layer's public entry points (see README.md).

    The span name is the layer; nested calls of one layer (the DSE
    inside the Table 1 reproduction, a kernel's ``predict`` pricing a
    GEMM) fold into that layer's self time.
    """
    import repro.core.dse as dse
    import repro.fleet.engine as fleet_engine
    import repro.serve.dispatch as dispatch
    from repro.baselines.direct_naive import NaiveDirectKernel
    from repro.baselines.fft_conv import FFTConvolution
    from repro.baselines.gemm import TiledGemmKernel
    from repro.baselines.im2col import Im2colKernel
    from repro.baselines.implicit_gemm import ImplicitGemmKernel
    from repro.baselines.winograd import WinogradConvolution
    from repro.bench import claims
    from repro.conv.batching import BatchedKernel
    from repro.core.depthwise import DepthwiseKernel
    from repro.core.general import GeneralCaseKernel
    from repro.core.special import SpecialCaseKernel
    from repro.fleet.admission import AdmissionController
    from repro.fleet.shared_cache import SharedPlanCache
    from repro.gpu.fastsim import FastGeneralKernel, FastSpecialKernel
    from repro.gpu.timing import TimingModel
    from repro.kernels.registry import BackendRegistry
    from repro.obs.metrics import Counter as ObsCounter
    from repro.obs.metrics import Histogram
    from repro.serve.batcher import DynamicBatcher
    from repro.serve.engine import ServeEngine
    from repro.serve.stats import ServeStats

    wrap = recorder.wrap
    # conv: the functional convolution, as the dispatcher calls it.
    wrap(dispatch, "conv2d_reference", "conv.reference",
         on_return=_conv_bytes)
    # serve
    wrap(ServeEngine, "serve_trace", "serve.engine")
    wrap(DynamicBatcher, "add", "serve.batcher", _batched_request)
    for attr in ("due", "drain"):
        wrap(DynamicBatcher, attr, "serve.batcher")
    for attr in ("record_batch", "record_latency"):
        wrap(ServeStats, attr, "serve.stats")
    wrap(dispatch.Dispatcher, "plan", "serve.dispatch.plan", _shape)
    wrap(dispatch.Dispatcher, "build_plan", "serve.dispatch.build", _shape)
    wrap(dispatch.Dispatcher, "execute", "serve.dispatch.execute", _batch)
    # kernels + core + gpu: backend admission, DSE, pricing.
    wrap(BackendRegistry, "available", "kernels.registry.available")
    for attr in ("explore_special", "explore_general", "best_config",
                 "reproduce_table1"):
        wrap(dse, attr, "core.dse")
    for cls in (SpecialCaseKernel, GeneralCaseKernel, DepthwiseKernel,
                NaiveDirectKernel, FFTConvolution, Im2colKernel,
                ImplicitGemmKernel, WinogradConvolution, BatchedKernel,
                TiledGemmKernel):
        wrap(cls, "predict", "kernels.predict")
    wrap(TimingModel, "evaluate", "gpu.timing")
    for cls in (FastSpecialKernel, FastGeneralKernel):
        wrap(cls, "run_traced", "gpu.fastsim.run", on_return=_sim_events)
        wrap(cls, "trace_cost", "gpu.fastsim.trace")
    wrap(claims, "verify_claims", "bench.claims")
    # fleet
    wrap(fleet_engine.FleetEngine, "serve_trace", "fleet.engine")
    wrap(AdmissionController, "admit", "fleet.admission", _admitted_request)
    wrap(SharedPlanCache, "get_or_build", "fleet.shared_cache")
    wrap(fleet_engine, "parallel_map", "parallel.executor")
    # obs: counted, not timed -- a span would cost more than the call.
    for owner, attr in ((ObsCounter, "inc"), (ObsCounter, "inc_key"),
                        (Histogram, "observe")):
        recorder.count_calls(owner, attr, "obs.metrics.updates")
