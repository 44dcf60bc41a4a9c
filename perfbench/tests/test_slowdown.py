"""Slowdown self-test: the benchmark must see a layer that got slower.

Each case adds a fixed busy delay to one layer's public function, at the
call site the program uses (``run.py --inject``), and checks that

* the traced run attributes the added time to that layer;
* the predicted end-to-end metric on the predicted workload moves past
  its ``BENCHMARK.json`` bound;
* the bypass workload stays inside its bound.

Runs the real benchmark, so it takes a few minutes:
``python3 -m pytest perfbench/tests/test_slowdown.py -q``.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SEED = 3
SECONDS = 6
PAIRS = 3
CONV_DELAY_S = 5e-4      # per conv2d_reference call; the call is ~0.4 ms
BUILD_DELAY_S = 2e-2     # per plan build; a build is ~7 ms
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
BOUNDS = {m["name"]: m["bound"] for m in END_TO_END}
BETTER = {m["name"]: m["better"] for m in END_TO_END}


def bench(workload, trace, inject=None):
    """(per-layer metrics or None, end-to-end metrics) of one run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        return None, metrics
    summary = json.loads(
        (run.OUT_DIR / ("%s-seed%d.trace.json" % (workload, SEED)))
        .read_text())
    return metrics, summary["end_to_end"]


@pytest.fixture(scope="module")
def baseline():
    return {"serve_classic": bench("serve_classic", 1),
            "fleet_longtail": bench("fleet_longtail", 1)}


def paired(workload, inject):
    """Median end-to-end metrics of alternating plain and slowed runs.

    The host's speed drifts by tens of percent over minutes, so the
    bypass comparison alternates the two sides instead of reusing a
    baseline taken earlier.
    """
    runs = {False: [], True: []}
    for _ in range(PAIRS):
        for slowed in (False, True):
            runs[slowed].append(
                bench(workload, 0, inject if slowed else None)[1])
    return [{m: statistics.median(r[m] for r in runs[slowed])
             for m in BOUNDS} for slowed in (False, True)]


def _change(base, slowed, metric):
    """Relative worsening of an end-to-end metric (positive = worse)."""
    delta = (slowed[metric] - base[metric]) / base[metric]
    return -delta if BETTER[metric] == "higher" else delta


def _attributed(base_layers, slow_layers, metric, calls_metric, delay):
    """The added self time lands in ``metric`` and nowhere else.

    Host noise moves any layer by up to about a fifth between runs, so
    the comparisons with the baseline run leave that much room.
    """
    injected = slow_layers[calls_metric] * delay
    assert injected > 0
    assert slow_layers[metric] >= injected
    assert slow_layers[metric] - base_layers[metric] > 0.5 * injected
    for name in list(run.SELF_TIMES.values()) + ["bench.unattributed_s"]:
        if name != metric:
            assert slow_layers[name] - base_layers[name] < 0.2 * injected, \
                name


def test_conv_delay(baseline):
    layers, e2e = bench("serve_classic", 1, "conv=%r" % CONV_DELAY_S)
    base_layers, base_e2e = baseline["serve_classic"]
    _attributed(base_layers, layers, "conv.reference.self_s",
                "conv.reference.calls", CONV_DELAY_S)
    assert _change(base_e2e, e2e, "host_rps") > BOUNDS["host_rps"]
    # Bypass: the paper reproduction never serves a request.
    base, slowed = paired("paper_repro", "conv=%r" % CONV_DELAY_S)
    for metric in ("host_rps", "reproduce_s"):
        assert abs(_change(base, slowed, metric)) < BOUNDS[metric]


def test_build_delay(baseline):
    layers, e2e = bench("fleet_longtail", 1, "build=%r" % BUILD_DELAY_S)
    base_layers, base_e2e = baseline["fleet_longtail"]
    _attributed(base_layers, layers, "serve.dispatch.build_self_s",
                "serve.dispatch.builds", BUILD_DELAY_S)
    assert _change(base_e2e, e2e, "host_rps") > BOUNDS["host_rps"]
    # Bypass: serve_classic plans its palette in set-up, so its warm
    # replay never builds a plan.
    base, slowed = paired("serve_classic", "build=%r" % BUILD_DELAY_S)
    for metric in ("host_rps", "reproduce_s"):
        assert abs(_change(base, slowed, metric)) < BOUNDS[metric]
