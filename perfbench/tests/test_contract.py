"""Fast checks of the benchmark's own plumbing (no workload is run)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import PASS_ROOT, SpanRecorder, fold  # noqa: E402


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(run.PER_LAYER)
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_per_backend_metrics_cover_the_registry():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.kernels import default_registry

    assert set(run.BACKENDS) == set(default_registry().names())


def test_fold_self_times_sum_to_the_root_wall():
    rec = SpanRecorder()
    spans = rec.spans
    # Hand-made timeline: pass [0, 10] > engine [1, 9] > conv [2, 5],
    # conv [6, 7]; the engine re-enters itself in [7.5, 8.5].  A span
    # outside any pass root is ignored.
    spans += [[PASS_ROOT, 0.0, 10.0, -1, None],
              ["serve.engine", 1.0, 9.0, 0, None],
              ["conv.reference", 2.0, 5.0, 1, None],
              ["conv.reference", 6.0, 7.0, 1, None],
              ["serve.engine", 7.5, 8.5, 1, None],
              ["gpu.timing", 20.0, 21.0, -1, None]]
    wall, layers = fold(spans)
    assert wall == 10.0
    assert layers["conv.reference"] == {"calls": 2, "self_s": 4.0,
                                        "total_s": 4.0}
    assert layers["serve.engine"]["self_s"] == 4.0
    assert layers["serve.engine"]["total_s"] == 8.0   # outermost only
    assert layers[PASS_ROOT]["self_s"] == 2.0
    assert "gpu.timing" not in layers
    assert sum(layer["self_s"] for layer in layers.values()) == wall


def test_recorder_nests_and_inherits_ids():
    rec = SpanRecorder()

    class Layer:
        def outer(self, request_id):
            return self.inner()

        def inner(self):
            return 1

    rec.wrap(Layer, "outer", "outer", ident=lambda _self, rid: ("req", rid))
    rec.wrap(Layer, "inner", "inner")
    assert Layer().outer(7) == 1
    outer, inner = rec.spans
    assert outer[3] == -1 and inner[3] == 0
    assert inner[4] == ("req", 7)
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def _bench(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_classic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, **(env or {})))


@pytest.mark.parametrize("var", run.REFUSED_VARS)
def test_refuses_to_record_under_a_program_changing_variable(var):
    proc = _bench(ROOT, {var: "1"})
    assert proc.returncode == 2
    assert var in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = _bench(bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
