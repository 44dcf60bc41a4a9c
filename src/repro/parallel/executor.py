"""Process-pool work-queue executor with deterministic sharding.

:func:`parallel_map` is the one primitive every sweep-shaped hot path
in the repo fans out through (DSE candidate ranking, figure sweeps).
Serving never calls it: per-request work is far cheaper than a pool
round-trip (docs/PARALLEL.md).  Its contract:

* **Determinism** — items are split into contiguous shards
  (:func:`shard`), each shard is evaluated in item order, and results
  are reassembled in input order regardless of which worker finished
  first.  For a pure ``fn``, ``parallel_map(fn, items, jobs=n)``
  returns exactly ``[fn(x) for x in items]`` for every ``n``.
* **Degree selection** — ``jobs`` comes from the explicit argument,
  else the ``REPRO_JOBS`` environment variable, else 1 (serial).
  ``jobs=1`` runs fully in-process: no pool, no pickling, bit-identical
  to the pre-parallel code path.
* **Telemetry completeness** — each worker chunk runs against a fresh
  process-local :mod:`repro.obs` registry/tracer; the resulting
  snapshot travels back with the results and is merged into the
  parent's live surfaces (see :mod:`repro.obs.snapshot`), so counter
  totals under ``jobs>1`` equal the serial totals.
* **Graceful degradation** — anything that prevents the pool from
  working (no ``multiprocessing`` support, an unpicklable ``fn``,
  running inside a daemonic pool worker, a chunk exhausting its
  retries) falls back to in-process serial evaluation of the affected
  items instead of failing the sweep.
* **Bounded failure handling** — each shard gets ``timeout_s`` to
  complete and ``retries`` re-submissions with exponential backoff; a
  timed-out pool is discarded (its workers may be wedged) and rebuilt.
  Every retry, timeout, and pool restart increments an obs counter
  (``parallel_retries_total`` / ``parallel_timeouts_total`` /
  ``parallel_pool_restarts_total``) on the process-wide registry, so
  executor trouble is visible in every stats dump — and because the
  counters live on the ordinary registry, a nested caller's worker
  snapshot carries them up in the standard merge.

Worker pools are cached per job count and reused across calls, so a
sweep that calls :func:`parallel_map` hundreds of times pays the fork
cost once.
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from typing import Callable, List, Optional, Sequence, Union

from repro.errors import ParallelError

__all__ = [
    "DEFAULT_TIMEOUT_S",
    "DEFAULT_RETRIES",
    "DEFAULT_BACKOFF_S",
    "JOBS_ENV_VAR",
    "resolve_jobs",
    "shard",
    "parallel_map",
    "shutdown_pools",
]


#: Environment variable consulted when no explicit job count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Per-shard wall-clock budget before the shard is retried/fallen back.
DEFAULT_TIMEOUT_S = 300.0

#: Re-submissions of a failed or timed-out shard before serial fallback.
DEFAULT_RETRIES = 2

#: Base of the exponential backoff between shard retries.
DEFAULT_BACKOFF_S = 0.05

#: Shards per worker: small enough to amortize dispatch overhead, large
#: enough that an uneven shard does not serialize the tail.
_SHARDS_PER_WORKER = 4

_POOLS: dict = {}            # job count -> live multiprocessing.Pool
_ATEXIT_REGISTERED = False


# ----------------------------------------------------------------------
# Degree selection
# ----------------------------------------------------------------------

def resolve_jobs(jobs: Optional[Union[int, str]] = None) -> int:
    """The effective worker count: argument > ``REPRO_JOBS`` > 1.

    ``"auto"`` (or 0) selects ``os.cpu_count()``.  Invalid values raise
    :class:`~repro.errors.ParallelError` so a typo'd environment never
    silently serializes a sweep.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return 1
        jobs = raw
    if isinstance(jobs, str):
        if jobs.lower() == "auto":
            jobs = 0
        else:
            try:
                jobs = int(jobs)
            except ValueError:
                raise ParallelError(
                    "invalid job count %r (expected a positive integer, "
                    "0, or 'auto')" % (jobs,))
    if jobs == 0:
        jobs = os.cpu_count() or 1
    if jobs < 1:
        raise ParallelError("job count must be >= 1, got %d" % jobs)
    return jobs


# ----------------------------------------------------------------------
# Sharding
# ----------------------------------------------------------------------

def shard(items: Sequence, shards: int) -> List[list]:
    """Split ``items`` into at most ``shards`` contiguous, near-equal
    runs — deterministically, preserving order, never returning an
    empty shard.  ``shard(range(5), 3)`` is ``[[0, 1], [2, 3], [4]]``.
    """
    if shards < 1:
        raise ParallelError("shard count must be >= 1, got %d" % shards)
    items = list(items)
    if not items:
        return []
    shards = min(shards, len(items))
    base, extra = divmod(len(items), shards)
    out, start = [], 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(items[start:start + size])
        start += size
    return out


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _run_chunk(payload):
    """Evaluate one shard in a worker process.

    Runs against a fresh process-local obs surface so the returned
    snapshot contains exactly this shard's telemetry — pools are reused
    across calls and must not leak a previous shard's counters.
    """
    from repro.obs.metrics import reset_registry
    from repro.obs.snapshot import worker_snapshot
    from repro.obs.tracing import reset_tracer

    fn, chunk = payload
    registry = reset_registry()
    tracer = reset_tracer()
    results = [fn(item) for item in chunk]
    return results, worker_snapshot(registry, tracer)


def _executor_counters():
    """The executor's failure-handling counters, on the live registry.

    Fetched lazily per call: worker processes reset their registry per
    chunk, and these counters must land on whichever registry is live
    so snapshot merges carry them to the parent like any other series.
    """
    from repro.obs.metrics import get_registry

    registry = get_registry()
    return (
        registry.counter(
            "parallel_retries_total",
            "Shard re-submissions after a failed or timed-out attempt"),
        registry.counter(
            "parallel_timeouts_total",
            "Shard attempts that exceeded their wall-clock budget"),
        registry.counter(
            "parallel_pool_restarts_total",
            "Worker pools discarded (and rebuilt) after a timeout"),
    )


def _in_worker() -> bool:
    """True when already inside a daemonic pool worker (no nesting)."""
    try:
        import multiprocessing
        return bool(multiprocessing.current_process().daemon)
    except Exception:
        return True


# ----------------------------------------------------------------------
# Pool management
# ----------------------------------------------------------------------

def _get_pool(jobs: int):
    """The cached pool for this job count, or None if pools don't work."""
    global _ATEXIT_REGISTERED
    pool = _POOLS.get(jobs)
    if pool is not None:
        return pool
    try:
        import multiprocessing
        pool = multiprocessing.Pool(processes=jobs)
    except Exception:
        return None
    _POOLS[jobs] = pool
    if not _ATEXIT_REGISTERED:
        atexit.register(shutdown_pools)
        _ATEXIT_REGISTERED = True
    return pool


def _discard_pool(jobs: int) -> None:
    """Terminate a pool whose workers may be wedged (post-timeout)."""
    pool = _POOLS.pop(jobs, None)
    if pool is not None:
        try:
            pool.terminate()
            pool.join()
        except Exception:
            pass


def shutdown_pools() -> None:
    """Terminate every cached worker pool (atexit / test teardown)."""
    for jobs in list(_POOLS):
        _discard_pool(jobs)


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------

def parallel_map(
    fn: Callable,
    items: Sequence,
    jobs: Optional[Union[int, str]] = None,
    *,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    retries: int = DEFAULT_RETRIES,
    backoff_s: float = DEFAULT_BACKOFF_S,
) -> list:
    """``[fn(x) for x in items]``, fanned out over a process pool.

    ``fn`` must be picklable (a module-level function or a
    ``functools.partial`` over one) and pure with respect to the result
    ordering guarantee; see the module docstring for the full contract.
    Worker exceptions are retried per shard and, after ``retries``
    re-submissions, re-raised from an in-process serial evaluation of
    that shard — so a deterministic error in ``fn`` surfaces with its
    natural traceback no matter the degree.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if retries < 0:
        raise ParallelError("retries must be >= 0, got %d" % retries)
    if timeout_s is not None and timeout_s <= 0:
        raise ParallelError("timeout_s must be positive or None")
    if jobs <= 1 or len(items) < 2 or _in_worker():
        return [fn(item) for item in items]
    try:
        pickle.dumps(fn)
    except Exception:
        # Closures, lambdas, locally-defined callables: stay serial.
        return [fn(item) for item in items]
    pool = _get_pool(jobs)
    if pool is None:
        return [fn(item) for item in items]
    retry_counter, timeout_counter, restart_counter = _executor_counters()

    from repro.obs.snapshot import merge_worker_snapshot
    from repro.obs.tracing import get_tracer

    region_start_s = get_tracer().now_s()
    chunks = shard(items, jobs * _SHARDS_PER_WORKER)
    pending = [pool.apply_async(_run_chunk, ((fn, chunk),))
               for chunk in chunks]
    results: List[list] = [None] * len(chunks)
    for index, chunk in enumerate(chunks):
        outcome = None
        for attempt in range(retries + 1):
            handle = pending[index] if attempt == 0 else None
            if handle is None:
                retry_counter.inc()
                time.sleep(backoff_s * (2 ** (attempt - 1)))
                pool = _get_pool(jobs)
                if pool is None:
                    break
                handle = pool.apply_async(_run_chunk, ((fn, chunk),))
            try:
                outcome = handle.get(timeout_s)
                break
            except Exception as exc:
                if isinstance(exc, _timeout_error()):
                    # The worker may be wedged mid-task; a retry on the
                    # same pool could queue behind it forever.
                    timeout_counter.inc()
                    restart_counter.inc()
                    _discard_pool(jobs)
                    pending = pending[:index + 1] + [None] * (
                        len(chunks) - index - 1)
                outcome = None
        if outcome is None:
            # Retries exhausted (or the pool died): evaluate this shard
            # in-process.  A deterministic exception in fn surfaces
            # here with its natural traceback; telemetry lands directly
            # on the live surfaces.
            results[index] = [fn(item) for item in chunk]
            continue
        chunk_results, obs_snapshot = outcome
        merge_worker_snapshot(obs_snapshot, offset_s=region_start_s,
                              extra_args={"shard": index})
        results[index] = chunk_results
    return [value for chunk_results in results for value in chunk_results]


def _timeout_error():
    """The executor's wait-timeout exception type (import-light)."""
    import multiprocessing
    return multiprocessing.TimeoutError
