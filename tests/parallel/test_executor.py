"""Tests for the sharded process-pool executor."""

import multiprocessing
import os
import time

import pytest

from repro.errors import ParallelError
from repro.obs.metrics import get_registry, reset_registry
from repro.parallel import (
    JOBS_ENV_VAR,
    parallel_map,
    resolve_jobs,
    shard,
    shutdown_pools,
)


def square(x):
    return x * x


def square_with_counter(x):
    get_registry().counter("executor_test_calls_total").inc()
    return x * x


def fail_on_negative(x):
    if x < 0:
        raise ValueError("negative input %d" % x)
    return x * x


def fail_in_worker_only(x):
    """Raises only inside a daemonic pool worker — the parent succeeds."""
    if multiprocessing.current_process().daemon:
        raise RuntimeError("worker-only failure")
    return x * x


def sleep_in_worker_only(x):
    """Sleeps only inside a pool worker, so timeouts don't slow the
    parent's serial fallback."""
    if multiprocessing.current_process().daemon:
        time.sleep(30.0)
    return x * x


def nested_map(x):
    """Calls parallel_map from inside a worker (must stay serial)."""
    return sum(parallel_map(square, range(x + 1), jobs=2))


@pytest.fixture(autouse=True)
def _fresh_pools_and_registry():
    reset_registry()
    yield
    shutdown_pools()
    reset_registry()


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs() == 1

    def test_env_var_selects_degree(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        assert resolve_jobs(2) == 2

    def test_auto_and_zero_mean_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        expected = os.cpu_count() or 1
        assert resolve_jobs("auto") == expected
        assert resolve_jobs(0) == expected

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "auto")
        assert resolve_jobs() == (os.cpu_count() or 1)

    def test_invalid_values_raise(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "many")
        with pytest.raises(ParallelError):
            resolve_jobs()
        with pytest.raises(ParallelError):
            resolve_jobs(-2)
        with pytest.raises(ParallelError):
            resolve_jobs("x2")


class TestShard:
    def test_contiguous_and_order_preserving(self):
        items = list(range(10))
        shards = shard(items, 3)
        assert [x for chunk in shards for x in chunk] == items
        assert shards == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_never_returns_empty_shards(self):
        assert shard([1, 2], 5) == [[1], [2]]
        assert shard([], 4) == []

    def test_near_equal_sizes(self):
        sizes = [len(chunk) for chunk in shard(list(range(23)), 4)]
        assert sum(sizes) == 23
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        items = list(range(17))
        assert shard(items, 5) == shard(items, 5)

    def test_invalid_shard_count(self):
        with pytest.raises(ParallelError):
            shard([1], 0)


class TestParallelMap:
    def test_serial_matches_comprehension(self):
        items = list(range(13))
        assert parallel_map(square, items, jobs=1) == [x * x for x in items]

    def test_parallel_matches_serial_in_order(self):
        items = list(range(37))
        expected = [x * x for x in items]
        assert parallel_map(square, items, jobs=2) == expected
        assert parallel_map(square, items, jobs=4) == expected

    def test_empty_and_singleton(self):
        assert parallel_map(square, [], jobs=4) == []
        assert parallel_map(square, [7], jobs=4) == [49]

    def test_unpicklable_fn_falls_back_to_serial(self):
        items = list(range(8))
        out = parallel_map(lambda x: x + 1, items, jobs=4)
        assert out == [x + 1 for x in items]

    def test_worker_counters_merge_to_serial_totals(self):
        n = 29
        parallel_map(square_with_counter, range(n), jobs=3)
        merged = get_registry().get("executor_test_calls_total").total()
        reset_registry()
        parallel_map(square_with_counter, range(n), jobs=1)
        serial = get_registry().get("executor_test_calls_total").total()
        assert merged == serial == float(n)

    def test_deterministic_error_surfaces_with_original_type(self):
        # The failing shard exhausts its retries in the pool, then the
        # serial fallback re-raises fn's own exception in-process.
        with pytest.raises(ValueError, match="negative input"):
            parallel_map(fail_on_negative, [1, 2, -3, 4], jobs=2,
                         retries=0, backoff_s=0.0)

    def test_worker_only_failure_degrades_to_parent(self):
        # Every pool attempt fails; the in-process fallback succeeds,
        # so the caller still gets the full result set.
        items = list(range(9))
        out = parallel_map(fail_in_worker_only, items, jobs=2,
                           retries=1, backoff_s=0.0)
        assert out == [x * x for x in items]

    def test_timeout_recovers_via_serial_fallback(self):
        items = list(range(6))
        start = time.perf_counter()
        out = parallel_map(sleep_in_worker_only, items, jobs=2,
                           timeout_s=0.5, retries=0, backoff_s=0.0)
        elapsed = time.perf_counter() - start
        assert out == [x * x for x in items]
        assert elapsed < 25.0  # far below the worker's 30 s sleep

    def test_nested_call_inside_worker_stays_serial(self):
        expected = [sum(y * y for y in range(x + 1)) for x in range(6)]
        assert parallel_map(nested_map, range(6), jobs=2) == expected

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ParallelError):
            parallel_map(square, [1, 2], jobs=2, retries=-1)
        with pytest.raises(ParallelError):
            parallel_map(square, [1, 2], jobs=2, timeout_s=0.0)


class TestExecutorCounters:
    def counters(self):
        registry = get_registry()
        return tuple(
            registry.counter(name).total() for name in (
                "parallel_retries_total", "parallel_timeouts_total",
                "parallel_pool_restarts_total"))

    def test_clean_run_counts_nothing(self):
        parallel_map(square, range(8), jobs=2)
        assert self.counters() == (0.0, 0.0, 0.0)

    def test_worker_failures_count_retries(self):
        parallel_map(fail_in_worker_only, range(4), jobs=2,
                     retries=2, backoff_s=0.0)
        retries, timeouts, restarts = self.counters()
        assert retries == 8.0        # 4 chunks x 2 resubmissions each
        assert timeouts == 0.0 and restarts == 0.0

    def test_timeouts_count_and_restart_the_pool(self):
        parallel_map(sleep_in_worker_only, range(4), jobs=2,
                     timeout_s=0.2, retries=0, backoff_s=0.0)
        retries, timeouts, restarts = self.counters()
        assert timeouts >= 1.0
        assert restarts >= 1.0
