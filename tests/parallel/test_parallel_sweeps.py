"""End-to-end parity of the parallelized sweep paths.

The executor's headline guarantee: every sweep produces bit-identical
results for any ``jobs`` degree, and telemetry totals merge losslessly.
"""

import os
import statistics
import time

import pytest

from repro.bench.runner import compare_on_sweep
from repro.conv.workloads import special_case_sweep
from repro.core.dse import (
    enumerate_general_configs,
    explore_general,
    explore_special,
    reproduce_table1,
)
from repro.core.special import SpecialCaseKernel
from repro.baselines.im2col import Im2colKernel
from repro.gpu.arch import KEPLER_K40M
from repro.obs.metrics import get_registry, reset_registry
from repro.parallel import parallel_map, shutdown_pools


@pytest.fixture(autouse=True)
def _fresh_state():
    reset_registry()
    yield
    shutdown_pools()
    reset_registry()


def general_subset(n=48):
    return enumerate_general_configs(3, 2, KEPLER_K40M)[:n]


class TestDSEParity:
    def test_explore_special_identical_rankings(self):
        serial = explore_special(jobs=1)
        fanned = explore_special(jobs=2)
        assert serial == fanned  # dataclass equality: configs AND floats

    def test_explore_general_identical_rankings(self):
        configs = general_subset()
        serial = explore_general(3, configs=configs, jobs=1)
        fanned = explore_general(3, configs=configs, jobs=3)
        assert serial == fanned

    def test_candidate_counter_totals_match_serial(self):
        configs = general_subset()
        explore_general(3, configs=configs, jobs=1)
        serial_total = get_registry().get("dse_candidates_total").total()
        reset_registry()
        explore_general(3, configs=configs, jobs=2)
        fanned_total = get_registry().get("dse_candidates_total").total()
        assert fanned_total == serial_total == float(len(configs))

    def test_candidate_spans_arrive_from_workers(self):
        from repro.obs.tracing import get_tracer, reset_tracer

        configs = general_subset(12)
        reset_tracer()
        explore_general(3, configs=configs, jobs=2)
        spans = get_tracer().by_category("dse")
        assert len(spans) == len(configs)
        assert any("shard" in s.args for s in spans)


class TestTable1Parity:
    def test_reproduce_table1_identical_rows(self):
        # One filter size keeps the full-axis exploration affordable
        # while still exercising the fan-out/merge path end to end.
        serial = reproduce_table1(kernel_sizes=(3,), jobs=1)
        fanned = reproduce_table1(kernel_sizes=(3,), jobs=2)
        assert serial == fanned


class TestSweepParity:
    def test_compare_on_sweep_identical_rows(self):
        kernels = {
            "ours": SpecialCaseKernel(KEPLER_K40M),
            "cuDNN": Im2colKernel(KEPLER_K40M),
        }
        points = special_case_sweep(3)
        serial = compare_on_sweep(kernels, points, jobs=1)
        fanned = compare_on_sweep(kernels, points, jobs=2)
        assert serial == fanned

    def test_custom_lambda_metric_still_works(self):
        kernels = {"ours": SpecialCaseKernel(KEPLER_K40M)}
        points = special_case_sweep(3)[:3]
        rows = compare_on_sweep(
            kernels, points,
            metric=lambda kernel, problem: float(problem.width),
            jobs=2)
        assert [r.values["ours"] for r in rows] == [
            float(p.problem.width) for p in points]


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="speedup needs at least 2 cores")
class TestSpeedup:
    def test_parallel_dse_sweep_is_faster_than_serial(self):
        # The full Table 1 sweep: one K=3 config sweep is too small for
        # fan-out to pay (docs/PARALLEL.md).  Warm the process-wide
        # pattern caches serially first, then fork fresh workers so
        # they inherit them, and compare medians of alternating runs.
        expected = reproduce_table1(jobs=1)
        shutdown_pools()
        parallel_map(abs, [1, 2, 3, 4], jobs=2)
        walls = {1: [], 2: []}
        for _ in range(5):
            for jobs in (1, 2):
                start = time.perf_counter()
                rows = reproduce_table1(jobs=jobs)
                walls[jobs].append(time.perf_counter() - start)
                assert rows == expected
        assert statistics.median(walls[2]) < statistics.median(walls[1])
